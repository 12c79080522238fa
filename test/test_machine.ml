(* Tests for the memory-hierarchy simulator and the control-centric tiling
   baseline. *)

module Cache = Machine.Cache
module Model = Machine.Model
module K = Kernels.Builders
module E = Loopir.Expr
module Fexpr = Loopir.Fexpr
module Spec = Shackle.Spec
module Blocking = Shackle.Blocking

let v = E.var
let rf a idx = Fexpr.ref_ a (List.map v idx)

(* --- single cache level --- *)

let test_cache_basics () =
  let c = Cache.create { Cache.size_bytes = 1024; line_bytes = 64; assoc = 2 } in
  Alcotest.(check bool) "cold miss" false (Cache.access c 0);
  Alcotest.(check bool) "hit same line" true (Cache.access c 8);
  Alcotest.(check bool) "hit line end" true (Cache.access c 63);
  Alcotest.(check bool) "next line misses" false (Cache.access c 64);
  Alcotest.(check int) "accesses" 4 (Cache.accesses c);
  Alcotest.(check int) "hits" 2 (Cache.hits c);
  Alcotest.(check int) "misses" 2 (Cache.misses c)

let test_cache_lru_eviction () =
  (* 2-way, 8 sets of 64B lines: addresses 0, 1024, 2048 map to set 0 *)
  let c = Cache.create { Cache.size_bytes = 1024; line_bytes = 64; assoc = 2 } in
  ignore (Cache.access c 0);
  ignore (Cache.access c 1024);
  Alcotest.(check bool) "both ways resident" true (Cache.access c 0);
  ignore (Cache.access c 2048); (* evicts 1024 (LRU) *)
  Alcotest.(check bool) "0 survives" true (Cache.access c 0);
  Alcotest.(check bool) "1024 evicted" false (Cache.access c 1024)

let test_cache_direct_mapped () =
  let c = Cache.create { Cache.size_bytes = 512; line_bytes = 64; assoc = 1 } in
  ignore (Cache.access c 0);
  ignore (Cache.access c 512); (* same set, conflict *)
  Alcotest.(check bool) "conflict evicts" false (Cache.access c 0)

let test_cache_eviction_count () =
  let c = Cache.create { Cache.size_bytes = 1024; line_bytes = 64; assoc = 2 } in
  (* cold fills into empty ways are misses but not evictions *)
  ignore (Cache.access c 0);
  ignore (Cache.access c 1024);
  Alcotest.(check int) "cold fills don't evict" 0 (Cache.evictions c);
  ignore (Cache.access c 2048); (* set 0 full: displaces the LRU line *)
  Alcotest.(check int) "conflict evicts" 1 (Cache.evictions c);
  ignore (Cache.access c 2048); (* hit: no eviction *)
  Alcotest.(check int) "hits don't evict" 1 (Cache.evictions c);
  Cache.reset c;
  Alcotest.(check int) "reset zeroes evictions" 0 (Cache.evictions c)

let test_cache_full_capacity () =
  let c = Cache.create { Cache.size_bytes = 1024; line_bytes = 64; assoc = 2 } in
  (* touch 16 distinct lines = exactly capacity; all should be resident *)
  for i = 0 to 15 do
    ignore (Cache.access c (i * 64))
  done;
  let hits_before = Cache.hits c in
  for i = 0 to 15 do
    ignore (Cache.access c (i * 64))
  done;
  Alcotest.(check int) "all resident" (hits_before + 16) (Cache.hits c)

let test_cache_reset () =
  let c = Cache.create { Cache.size_bytes = 1024; line_bytes = 64; assoc = 2 } in
  ignore (Cache.access c 0);
  Cache.reset c;
  Alcotest.(check int) "zeroed" 0 (Cache.accesses c);
  Alcotest.(check bool) "cold again" false (Cache.access c 0)

let test_cache_geometry_checks () =
  List.iter
    (fun cfg ->
      Alcotest.(check bool) "rejected" true
        (try
           ignore (Cache.create cfg);
           false
         with Invalid_argument _ -> true))
    [ { Cache.size_bytes = 1000; line_bytes = 60; assoc = 2 };
      { Cache.size_bytes = 128; line_bytes = 64; assoc = 3 };
      { Cache.size_bytes = 64; line_bytes = 64; assoc = 0 } ]

(* A naive reference LRU cache (one list of resident lines per set, most
   recent first), used as an oracle for [Cache].  It shares no code with
   the implementation under test: [access] returns the hit bit and the
   counters are kept alongside. *)
module Ref_lru = struct
  type t = {
    cfg : Cache.config;
    nsets : int;
    sets : int list array;
    mutable accesses : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let create cfg =
    let nsets = cfg.Cache.size_bytes / cfg.Cache.line_bytes / cfg.Cache.assoc in
    { cfg; nsets; sets = Array.make nsets []; accesses = 0; misses = 0;
      evictions = 0 }

  let access r addr =
    let line = addr / r.cfg.Cache.line_bytes in
    let set = line mod r.nsets in
    let resident = r.sets.(set) in
    let hit = List.mem line resident in
    r.accesses <- r.accesses + 1;
    let without = List.filter (fun l -> l <> line) resident in
    let trimmed =
      if List.length without >= r.cfg.Cache.assoc then begin
        r.evictions <- r.evictions + 1;
        List.filteri (fun i _ -> i < r.cfg.Cache.assoc - 1) without
      end
      else without
    in
    if not hit then r.misses <- r.misses + 1;
    r.sets.(set) <- line :: trimmed;
    hit

  let reset r =
    Array.fill r.sets 0 r.nsets [];
    r.accesses <- 0;
    r.misses <- 0;
    r.evictions <- 0
end

(* Random cache geometries: direct mapped, 2..8 ways over many sets, and
   fully associative up to 128 ways — [small_cache]'s 1024/8/128 among
   them. *)
let gen_geometry =
  let open QCheck.Gen in
  let cfg ~line_bytes ~assoc ~nsets =
    { Cache.size_bytes = line_bytes * assoc * nsets; line_bytes; assoc }
  in
  let* line_bytes = oneofl [ 8; 16; 64 ] in
  frequency
    [ ( 1,
        let* sets_log = int_range 0 6 in
        return (cfg ~line_bytes ~assoc:1 ~nsets:(1 lsl sets_log)) );
      ( 2,
        let* assoc = int_range 2 8 and* sets_log = int_range 1 6 in
        return (cfg ~line_bytes ~assoc ~nsets:(1 lsl sets_log)) );
      ( 2,
        let* assoc = int_range 2 128 in
        return (cfg ~line_bytes ~assoc ~nsets:1) );
      (1, return { Cache.size_bytes = 1024; line_bytes = 8; assoc = 128 }) ]

(* A long trace over a pool of 1.25-3x the cache's lines, so the same lines
   are evicted and re-inserted many times, with a [reset] at a random
   point. *)
let gen_lru_case =
  let open QCheck.Gen in
  let* cfg = gen_geometry in
  let lines = cfg.Cache.size_bytes / cfg.Cache.line_bytes in
  let* pool_size = int_range (lines + (lines / 4) + 1) (3 * lines + 2) in
  let* pool = array_repeat pool_size (int_range 0 (8 * pool_size)) in
  let* len = int_range 200 3000 in
  let* trace =
    list_repeat len
      (let* line = oneofa pool and* off = int_range 0 (cfg.Cache.line_bytes - 1) in
       return ((line * cfg.Cache.line_bytes) + off))
  in
  let* reset_at = int_range 0 len in
  return (cfg, trace, reset_at)

let print_lru_case (cfg, trace, reset_at) =
  Printf.sprintf "%d/%d/%d, %d accesses, reset at %d" cfg.Cache.size_bytes
    cfg.Cache.line_bytes cfg.Cache.assoc (List.length trace) reset_at

let prop_lru_matches_reference =
  QCheck.Test.make ~count:300 ~name:"cache agrees with reference LRU"
    (QCheck.make ~print:print_lru_case gen_lru_case)
    (fun (cfg, trace, reset_at) ->
      let c = Cache.create cfg and r = Ref_lru.create cfg in
      let counters_agree () =
        Cache.accesses c = r.Ref_lru.accesses
        && Cache.misses c = r.Ref_lru.misses
        && Cache.evictions c = r.Ref_lru.evictions
      in
      let ok = ref true in
      List.iteri
        (fun i addr ->
          if i = reset_at then begin
            ok := !ok && counters_agree ();
            Cache.reset c;
            Ref_lru.reset r
          end;
          let want = Ref_lru.access r addr in
          if Cache.access c addr <> want then ok := false)
        trace;
      !ok && counters_agree ())

(* --- model --- *)

let test_sequential_vs_strided () =
  (* column-major traversal of a matrix should miss far less than
     row-major traversal of the same data once a row sweep exceeds the
     cache capacity *)
  let n = 600 in
  let init = Kernels.Inits.for_kernel "matmul" ~n in
  let walk order =
    let s =
      Loopir.Ast.stmt ~id:0 ~label:"S1"
        (Fexpr.ref_ "C" [ v "i"; v "j" ])
        (Fexpr.f 1.0)
    in
    let inner, outer = if order = `Col then ("i", "j") else ("j", "i") in
    { Loopir.Ast.p_name = "walk";
      params = [ "N" ];
      arrays = [ { Loopir.Ast.a_name = "C"; extents = [ v "N"; v "N" ] } ];
      body =
        [ Loopir.Ast.loop outer (E.int 1) (v "N")
            [ Loopir.Ast.loop inner (E.int 1) (v "N") [ s ] ] ] }
  in
  let sim p =
    (Model.simulate ~machine:Model.sp2_like ~quality:Model.untuned p
       ~params:[ ("N", n) ] ~init)
  in
  let col = sim (walk `Col) and row = sim (walk `Row) in
  let misses r = (List.hd r.Model.r_levels).Model.s_misses in
  Alcotest.(check bool) "column order misses less" true
    (misses col * 4 < misses row);
  Alcotest.(check bool) "row order misses every line" true
    (misses row >= n * n / 16 (* 16 elements per 128B line *))

let test_blocking_reduces_misses () =
  let n = 120 in
  let p = K.matmul () in
  let spec =
    [ Spec.factor (Blocking.blocks_2d ~array:"C" ~size:30)
        [ ("S1", rf "C" [ "I"; "J" ]) ];
      Spec.factor (Blocking.blocks_2d ~array:"A" ~size:30)
        [ ("S1", rf "A" [ "I"; "K" ]) ] ]
  in
  let blocked = Codegen.Tighten.generate p spec in
  let init = Kernels.Inits.for_kernel "matmul" ~n in
  let sim q =
    Model.simulate ~machine:Model.sp2_like ~quality:Model.untuned q
      ~params:[ ("N", n) ] ~init
  in
  let a = sim p and b = sim blocked in
  let misses r = (List.hd r.Model.r_levels).Model.s_misses in
  Alcotest.(check int) "same flops" a.Model.r_flops b.Model.r_flops;
  Alcotest.(check bool) "blocked misses less" true (misses b * 2 < misses a);
  Alcotest.(check bool) "blocked is faster" true
    (b.Model.r_cycles < a.Model.r_cycles)

let test_forwarding_reduces_accesses () =
  let n = 40 in
  let p = K.matmul () in
  let init = Kernels.Inits.for_kernel "matmul" ~n in
  let untuned =
    Model.simulate ~machine:Model.sp2_like ~quality:Model.untuned p
      ~params:[ ("N", n) ] ~init
  in
  let tuned =
    Model.simulate ~machine:Model.sp2_like ~quality:Model.tuned p
      ~params:[ ("N", n) ] ~init
  in
  Alcotest.(check bool) "fewer accesses with forwarding" true
    (tuned.Model.r_accesses < untuned.Model.r_accesses);
  Alcotest.(check int) "instance count unchanged" untuned.Model.r_instances
    tuned.Model.r_instances

let test_two_level_machine () =
  let n = 100 in
  let p = K.matmul () in
  let init = Kernels.Inits.for_kernel "matmul" ~n in
  let r =
    Model.simulate ~machine:Model.two_level ~quality:Model.untuned p
      ~params:[ ("N", n) ] ~init
  in
  (match r.Model.r_levels with
   | [ l1; l2 ] ->
     Alcotest.(check bool) "L2 probed only on L1 miss" true
       (l2.Model.s_accesses = l1.Model.s_misses);
     Alcotest.(check bool) "L2 filters" true (l2.Model.s_misses <= l2.Model.s_accesses)
   | _ -> Alcotest.fail "expected two levels")

(* --- closed-form cycle accounting & the record/replay pipeline --- *)

(* A reference simulator re-implementing the pre-refactor per-access float
   accumulation: walk a (spec, cache) list per access, adding the hit or
   memory cost to a float the moment it is incurred.  The production Sim
   accumulates only integer counters and folds costs in closed form when
   the result is built; because every cost constant is an integer or
   dyadic rational and every counter is far below 2^53, the two must agree
   bit-for-bit — not just within tolerance. *)
let reference_simulate ~machine ~quality prog ~params ~init =
  let levels =
    List.map
      (fun (l : Model.level_spec) -> (l, Cache.create l.Model.l_cache))
      machine.Model.levels
  in
  let hier = ref 0.0 in
  let accesses = ref 0 and instances = ref 0 and last = ref min_int in
  let trace ~write ~addr =
    if write then incr instances;
    if quality.Model.forwarding && addr = !last then ()
    else begin
      incr accesses;
      last := addr;
      let byte = addr * machine.Model.elem_bytes in
      let rec probe = function
        | [] -> hier := !hier +. machine.Model.mem_cycles
        | (l, c) :: rest ->
          if Cache.access c byte then hier := !hier +. l.Model.l_hit_cycles
          else probe rest
      in
      probe levels
    end
  in
  let _, flops =
    Exec.Verify.run_program ~sink:(Trace.Callback trace) prog ~params ~init
  in
  let cycles =
    (float_of_int flops *. machine.Model.flop_cycles)
    +. !hier
    +. (quality.Model.overhead *. float_of_int !instances)
  in
  ( cycles,
    flops,
    !accesses,
    !instances,
    List.map
      (fun ((l : Model.level_spec), c) ->
        { Model.s_name = l.Model.l_name;
          s_accesses = Cache.accesses c;
          s_hits = Cache.hits c;
          s_misses = Cache.misses c;
          s_evictions = Cache.evictions c })
      levels )

let trace_test_points =
  [ ("matmul", K.matmul (), 64); ("cholesky_right", K.cholesky_right (), 32) ]

let all_variants =
  [ (Model.sp2_like, Model.untuned);
    (Model.sp2_like, Model.tuned);
    (Model.two_level, Model.untuned);
    (Model.two_level, Model.tuned) ]

let test_closed_form_matches_per_access () =
  List.iter
    (fun (kernel, prog, n) ->
      let params = [ ("N", n) ] in
      let init = Kernels.Inits.for_kernel kernel ~n in
      List.iter
        (fun (machine, quality) ->
          let tag =
            Printf.sprintf "%s N=%d %s/%s" kernel n machine.Model.m_name
              quality.Model.q_name
          in
          let cycles, flops, accesses, instances, levels =
            reference_simulate ~machine ~quality prog ~params ~init
          in
          let r = Model.simulate ~machine ~quality prog ~params ~init in
          Alcotest.(check int) (tag ^ " flops") flops r.Model.r_flops;
          Alcotest.(check int) (tag ^ " accesses") accesses r.Model.r_accesses;
          Alcotest.(check int) (tag ^ " instances") instances
            r.Model.r_instances;
          Alcotest.(check bool) (tag ^ " level stats") true
            (levels = r.Model.r_levels);
          (* bitwise, NOT within-epsilon: the closed form must be exact *)
          Alcotest.(check bool) (tag ^ " cycles bit-identical") true
            (cycles = r.Model.r_cycles))
        all_variants)
    trace_test_points;
  (* the chosen sizes overflow L1 on both machines, so evictions — the
     subtlest counter — are genuinely exercised, not vacuously zero *)
  List.iter
    (fun machine ->
      let prog = K.matmul () and n = 64 in
      let r =
        Model.simulate ~machine ~quality:Model.untuned prog
          ~params:[ ("N", n) ]
          ~init:(Kernels.Inits.for_kernel "matmul" ~n)
      in
      Alcotest.(check bool)
        (machine.Model.m_name ^ " has evictions")
        true
        ((List.hd r.Model.r_levels).Model.s_evictions > 0))
    [ Model.sp2_like; Model.two_level ]

let test_record_replay_matches_direct () =
  List.iter
    (fun (kernel, prog, n) ->
      let params = [ ("N", n) ] in
      let init = Kernels.Inits.for_kernel kernel ~n in
      (* tiny chunks force many flush boundaries in the replay loop *)
      let recording = Model.record ~chunk_words:128 prog ~params ~init in
      let direct =
        List.map
          (fun (machine, quality) ->
            Model.simulate ~machine ~quality prog ~params ~init)
          all_variants
      in
      List.iter2
        (fun (machine, quality) want ->
          let tag =
            Printf.sprintf "%s N=%d %s/%s" kernel n machine.Model.m_name
              quality.Model.q_name
          in
          Alcotest.(check bool) (tag ^ " consume = direct") true
            (Model.consume ~machine ~quality recording = want))
        all_variants direct;
      (* one recording also replays many times without mutation *)
      let machine, quality = List.hd all_variants in
      Alcotest.(check bool) "recording is reusable" true
        (Model.consume ~machine ~quality recording
        = Model.consume ~machine ~quality recording);
      let streamed = Model.stream ~chunk_words:128 prog ~params ~init all_variants in
      List.iter2
        (fun want got ->
          Alcotest.(check bool) (kernel ^ " stream = direct") true (got = want))
        direct streamed)
    trace_test_points

(* --- allocation gate --- *)

(* Minor-heap words allocated while [f] runs.  The count is deterministic,
   so the gates below are exact. *)
let minor_words f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

(* Matmul blocked for two cache levels (C x A shackles of 32 and 8),
   specialized to size n. *)
let matmul_two_level ~n =
  let ca size =
    [ Spec.factor (Blocking.blocks_2d ~array:"C" ~size)
        [ ("S1", rf "C" [ "I"; "J" ]) ];
      Spec.factor (Blocking.blocks_2d ~array:"A" ~size)
        [ ("S1", rf "A" [ "I"; "K" ]) ] ]
  in
  Loopir.Stages.specialize
    ~params:[ ("N", n) ]
    (Codegen.Tighten.generate (K.matmul ()) (ca 32 @ ca 8))

let record_matmul ~n =
  Model.record ~chunk_words:4096 (matmul_two_level ~n) ~params:[ ("N", n) ]
    ~init:(Kernels.Inits.for_kernel "matmul" ~n)

let test_replay_allocation_free () =
  (* a replay allocates its simulator and its result, nothing per access:
     a long recording costs exactly the words of a short one *)
  let short = record_matmul ~n:8 and long = record_matmul ~n:48 in
  List.iter
    (fun (machine, quality) ->
      let words r = minor_words (fun () -> Model.consume ~machine ~quality r) in
      let tag =
        Printf.sprintf "%s/%s replay words beyond set-up" machine.Model.m_name
          quality.Model.q_name
      in
      Alcotest.(check int) tag 0 (int_of_float (words long -. words short)))
    [ (Model.sp2_like, Model.untuned);
      (Model.sp2_like, Model.tuned);
      (Model.small_cache, Model.untuned);
      (Model.two_level, Model.untuned) ]

let test_record_allocation () =
  let n = 48 in
  let prog = matmul_two_level ~n and init = Kernels.Inits.for_kernel "matmul" ~n in
  let accesses = ref 0 in
  let words =
    minor_words (fun () ->
        let r = Model.record prog ~params:[ ("N", n) ] ~init in
        accesses := Trace.length r.Model.rec_trace)
  in
  Alcotest.(check int) "accesses recorded" (4 * n * n * n) !accesses;
  let per_access = words /. float_of_int !accesses in
  if per_access >= 0.1 then
    Alcotest.failf "record allocates %.3f words per access (gate: < 0.1)"
      per_access

(* --- tiling baseline --- *)

let test_tile_matmul_equivalent () =
  let p = K.matmul () in
  let tiled = Tiling.tile p ~sizes:[ ("I", 7); ("J", 5); ("K", 3) ] in
  let init = Kernels.Inits.for_kernel "matmul" ~n:17 in
  Alcotest.(check bool) "equivalent" true
    (Exec.Verify.equivalent p tiled ~params:[ ("N", 17) ] ~init)

let test_tile_matches_shackle_trace () =
  (* Section 3/4: for matmul, tiling all three loops and the C x A shackle
     produce the same blocked structure; their miss counts agree. *)
  let n = 75 in
  let p = K.matmul () in
  let tiled = Tiling.tile p ~sizes:[ ("I", 25); ("J", 25); ("K", 25) ] in
  let spec =
    [ Spec.factor (Blocking.blocks_2d ~array:"C" ~size:25)
        [ ("S1", rf "C" [ "I"; "J" ]) ];
      Spec.factor (Blocking.blocks_2d ~array:"A" ~size:25)
        [ ("S1", rf "A" [ "I"; "K" ]) ] ]
  in
  let shackled = Codegen.Tighten.generate p spec in
  let init = Kernels.Inits.for_kernel "matmul" ~n in
  let sim q =
    Model.simulate ~machine:Model.sp2_like ~quality:Model.untuned q
      ~params:[ ("N", n) ] ~init
  in
  let a = sim tiled and b = sim shackled in
  let misses r = (List.hd r.Model.r_levels).Model.s_misses in
  Alcotest.(check int) "identical misses" (misses a) (misses b)

let test_tile_rejects_imperfect () =
  Alcotest.(check bool) "cholesky rejected" true
    (try
       ignore (Tiling.tile (K.cholesky_right ()) ~sizes:[ ("J", 8) ]);
       false
     with Tiling.Not_perfectly_nested _ -> true)

let test_tile_rejects_triangular () =
  Alcotest.(check bool) "syrk J loop rejected" true
    (try
       ignore (Tiling.tile (K.syrk ()) ~sizes:[ ("J", 8) ]);
       false
     with Tiling.Not_perfectly_nested _ -> true)

let test_cholesky_update_tiled_correct () =
  let n = 33 in
  let init = Kernels.Inits.for_kernel "cholesky_right" ~n in
  Alcotest.(check bool) "equivalent" true
    (Exec.Verify.equivalent (K.cholesky_right ())
       (Tiling.cholesky_update_tiled ~size:8)
       ~params:[ ("N", n) ] ~init)

let test_shackle_beats_update_tiling () =
  (* the paper's Section 3 point: naive sinking + update-loop tiling is
     weaker than full data-centric blocking *)
  let n = 96 in
  let init = Kernels.Inits.for_kernel "cholesky_right" ~n in
  let spec =
    [ Spec.factor (Blocking.blocks_2d ~array:"A" ~size:24)
        [ ("S1", rf "A" [ "J"; "J" ]); ("S2", rf "A" [ "I"; "J" ]);
          ("S3", rf "A" [ "L"; "K" ]) ];
      Spec.factor (Blocking.blocks_2d ~array:"A" ~size:24)
        [ ("S1", rf "A" [ "J"; "J" ]); ("S2", rf "A" [ "J"; "J" ]);
          ("S3", rf "A" [ "K"; "J" ]) ] ]
  in
  let shackled = Codegen.Tighten.generate (K.cholesky_right ()) spec in
  let tiled = Tiling.cholesky_update_tiled ~size:24 in
  let sim q =
    Model.simulate ~machine:Model.sp2_like ~quality:Model.untuned q
      ~params:[ ("N", n) ] ~init
  in
  let a = sim shackled and b = sim tiled in
  let misses r = (List.hd r.Model.r_levels).Model.s_misses in
  Alcotest.(check bool) "shackle misses no more" true (misses a <= misses b)

let () =
  Alcotest.run "machine"
    [ ( "cache-property",
        List.map QCheck_alcotest.to_alcotest [ prop_lru_matches_reference ] );
      ( "cache",
        [ Alcotest.test_case "basics" `Quick test_cache_basics;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "direct mapped" `Quick test_cache_direct_mapped;
          Alcotest.test_case "eviction count" `Quick test_cache_eviction_count;
          Alcotest.test_case "full capacity" `Quick test_cache_full_capacity;
          Alcotest.test_case "reset" `Quick test_cache_reset;
          Alcotest.test_case "geometry checks" `Quick test_cache_geometry_checks ] );
      ( "model",
        [ Alcotest.test_case "sequential vs strided" `Quick
            test_sequential_vs_strided;
          Alcotest.test_case "blocking reduces misses" `Slow
            test_blocking_reduces_misses;
          Alcotest.test_case "forwarding" `Quick test_forwarding_reduces_accesses;
          Alcotest.test_case "two-level hierarchy" `Quick test_two_level_machine ] );
      ( "trace-pipeline",
        [ Alcotest.test_case "closed form = per-access accumulation" `Quick
            test_closed_form_matches_per_access;
          Alcotest.test_case "record/replay = direct" `Quick
            test_record_replay_matches_direct ] );
      ( "allocation",
        [ Alcotest.test_case "replay allocates nothing per access" `Quick
            test_replay_allocation_free;
          Alcotest.test_case "record allocates < 0.1 words per access" `Quick
            test_record_allocation ] );
      ( "tiling",
        [ Alcotest.test_case "matmul equivalence" `Quick test_tile_matmul_equivalent;
          Alcotest.test_case "tiling = shackling on matmul" `Slow
            test_tile_matches_shackle_trace;
          Alcotest.test_case "imperfect nest rejected" `Quick
            test_tile_rejects_imperfect;
          Alcotest.test_case "triangular bound rejected" `Quick
            test_tile_rejects_triangular;
          Alcotest.test_case "update-tiled cholesky correct" `Quick
            test_cholesky_update_tiled_correct;
          Alcotest.test_case "shackle vs update tiling" `Slow
            test_shackle_beats_update_tiling ] ) ]
