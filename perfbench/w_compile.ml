(* The [compile] workload: what [shacklec block]/[legal] and a cold daemon
   pay.  Every registry kernel x named spec x a few block sizes, plus each
   kernel's single-factor lattice (legal and illegal candidates alike).
   Each case runs on a fresh pipeline with a cold solver memo:
   deps -> probe -> codegen_cached -> specialize.  No simulation. *)

module Ast = Loopir.Ast
module Ctx = Polyhedra.Omega.Ctx
module Spec = Shackle.Spec
module Verdict = Shackle.Verdict

type case = {
  kernel : string;
  label : string;
  prog : Ast.program;
  spec : Spec.t;
  size : int;  (** block size *)
  params : (string * int) list;  (** specialization sizes *)
}

(* The named specs of [Experiments.Specs.lookup], per kernel. *)
let named =
  [ ("matmul", [ "c"; "ca"; "two-level" ]);
    ("cholesky_right", [ "write"; "read"; "full"; "left" ]);
    ("cholesky_left", [ "write"; "read"; "full"; "left" ]);
    ("cholesky_banded", [ "write" ]);
    ("qr", [ "columns" ]);
    ("gmtry", [ "write" ]);
    ("adi", [ "fused" ]) ]

(* Inputs from the seed: block sizes (three per named spec, one per lattice
   array), specialization sizes and the case order. *)
let make_cases rng =
  let kernels = Harness.registry () in
  let n () = 24 + Random.State.int rng 25 in
  let rec distinct k acc =
    if k = 0 then acc
    else
      let s = 3 + Random.State.int rng 6 in
      if List.mem s acc then distinct k acc else distinct (k - 1) (s :: acc)
  in
  let named_cases =
    List.concat_map
      (fun (kernel, specs) ->
        let prog = List.assoc kernel kernels in
        List.concat_map
          (fun spec_name ->
            List.map
              (fun size ->
                match Experiments.Specs.lookup ~kernel ~spec:spec_name ~size with
                | None -> failwith ("no spec " ^ spec_name)
                | Some spec ->
                  { kernel;
                    label = Printf.sprintf "%s/%s/%d" kernel spec_name size;
                    prog;
                    spec;
                    size;
                    params = Harness.params_for kernel (n ()) })
              (distinct 3 []))
          specs)
      named
  in
  let lattice_cases =
    List.concat_map
      (fun (kernel, prog) ->
        let pipe = Pipeline.create prog in
        List.concat_map
          (fun array ->
            let size = 2 + Random.State.int rng 7 in
            List.mapi
              (fun i choices ->
                { kernel;
                  label = Printf.sprintf "%s/%s#%d/%d" kernel array i size;
                  prog;
                  spec =
                    [ Spec.factor (Shackle.Blocking.blocks_2d ~array ~size) choices ];
                  size;
                  params = Harness.params_for kernel (n ()) })
              (Pipeline.choices pipe ~array))
          (Shackle.Search.default_arrays prog))
      kernels
  in
  (List.map fst kernels, Harness.shuffle rng (named_cases @ lattice_cases))

(* One case's observations.  Times are seconds. *)
type outcome = {
  o_total : float;
  o_deps : float;
  o_probe : float;
  o_codegen : float;
  o_specialize : float;
  o_verdict : string;
  o_ndeps : int;
  o_loops : int;
  o_guards : int;
  o_solver : Observe.Metrics.solver;
}

(* When tracing, a backing store that never answers brackets each fresh
   solve between its lookup (a miss) and its store, so solver time shows
   up as "polyhedra.solve" spans from outside the solver. *)
let solve_spans () =
  let open_ = ref false in
  let close () = if !open_ then (Span.leave (); open_ := false) in
  { Polyhedra.Omega.bk_find =
      (fun _ ->
        close ();
        Span.enter "polyhedra.solve";
        open_ := true;
        None);
    bk_store = (fun _ _ -> close ()) }

let run_case c =
  let t0 = Clock.now_ns () in
  let backing = if !Span.on then Some (solve_spans ()) else None in
  let pipe = Pipeline.create ~solver:(Ctx.create ~cache:true ?backing ()) c.prog in
  Span.with_ "pipeline.case" (fun () ->
      let deps, o_deps =
        Clock.time (fun () -> Span.with_ "dependence.analyze" (fun () -> Pipeline.deps pipe))
      in
      let verdict, o_probe =
        Clock.time (fun () -> Span.with_ "shackle.probe" (fun () -> Pipeline.probe pipe c.spec))
      in
      let (o_loops, o_guards), o_codegen, o_specialize =
        if Verdict.is_legal verdict then begin
          let blocked, cg =
            Clock.time (fun () ->
                Span.with_ "codegen.generate" (fun () -> Pipeline.codegen_cached pipe c.spec))
          in
          let _, sp =
            Clock.time (fun () ->
                Span.with_ "loopir.specialize" (fun () ->
                    Pipeline.specialize ~spec:c.spec pipe ~params:c.params))
          in
          (Codegen.Tighten.stats blocked, cg, sp)
        end
        else ((0, 0), 0.0, 0.0)
      in
      { o_total = Clock.since t0;
        o_deps;
        o_probe;
        o_codegen;
        o_specialize;
        o_verdict =
          (match verdict with
          | Verdict.Legal -> "legal"
          | Verdict.Illegal _ -> "illegal"
          | Verdict.Unknown _ -> "unknown");
        o_ndeps = List.length deps;
        o_loops;
        o_guards;
        o_solver = Observe.Metrics.solver_of_ctx (Pipeline.solver pipe) })

(* The exact per-pass signature: every counter that must repeat. *)
let signature cases outs =
  List.map2
    (fun c o ->
      let s = o.o_solver in
      Printf.sprintf "%s %s deps=%d loops=%d guards=%d q=%d solves=%d fuel=%d spl=%d unk=%d hits=%d"
        c.label o.o_verdict o.o_ndeps o.o_loops o.o_guards s.Observe.Metrics.so_queries
        (Observe.Metrics.solver_solves s) s.so_fuel_spent s.so_splinters s.so_unknowns
        s.so_cache_hits)
    cases outs

let run_pass cases = List.map (fun c -> try Ok (run_case c) with e -> Error e) cases

(* Independent oracles, once per case: the verdict against exhaustive
   enumeration at a small size, and every legal spec's blocked code
   against the original program. *)
let check_case c verdict =
  let n = (2 * c.size) + 2 in
  let params = Harness.params_for c.kernel n in
  match verdict with
  | "legal" ->
    (match Fuzzing.Brute.first_violation c.prog c.spec ~params with
    | Some (a, b) ->
      Ledger.fail "%s: legal, but at N=%d %s then %s invert the block order" c.label n
        (Fuzzing.Brute.access_string a) (Fuzzing.Brute.access_string b)
    | None -> ());
    let diff =
      Pipeline.verify (Pipeline.create c.prog) ~spec:c.spec ~params
        ~init:(Harness.init_for c.kernel n)
    in
    if not (diff <= 1e-9) then
      Ledger.fail "%s: blocked code differs from the original by %g at N=%d" c.label diff n
  | "illegal" ->
    if Fuzzing.Brute.first_violation c.prog c.spec ~params = None then
      Ledger.fail "%s: illegal, but enumeration at N=%d finds no inverted pair" c.label n
  | v -> Ledger.fail "%s: verdict %s" c.label v

let ms s = s *. 1000.0

let layer_metrics kernels cases (passes : (outcome list * float) list) =
  let npass = float_of_int (List.length passes) in
  let all = List.concat_map (fun (outs, _) -> List.combine cases outs) passes in
  let per_pass f = Stat.sum (List.map (fun (_, o) -> f o) all) /. npass in
  let per_pass_i f = per_pass (fun o -> float_of_int (f o)) in
  let when_ v f o = if String.equal o.o_verdict v then f o else 0.0 in
  Ledger.set "dependence.analyze_ms" (ms (per_pass (fun o -> o.o_deps)));
  Ledger.set "dependence.deps" (per_pass_i (fun o -> o.o_ndeps));
  Ledger.set "shackle.probe_legal_ms" (ms (per_pass (when_ "legal" (fun o -> o.o_probe))));
  Ledger.set "shackle.probe_illegal_ms" (ms (per_pass (when_ "illegal" (fun o -> o.o_probe))));
  List.iter
    (fun v -> Ledger.set ("shackle." ^ v) (per_pass (when_ v (fun _ -> 1.0))))
    [ "legal"; "illegal"; "unknown" ];
  Harness.solver_metrics ~per:npass (List.map (fun (_, o) -> o.o_solver) all);
  Ledger.set "codegen.generate_ms" (ms (per_pass (fun o -> o.o_codegen)));
  Ledger.set "codegen.loops" (per_pass_i (fun o -> o.o_loops));
  Ledger.set "codegen.guards" (per_pass_i (fun o -> o.o_guards));
  Ledger.set "loopir.specialize_ms" (ms (per_pass (fun o -> o.o_specialize)));
  (* per-kernel rows: the median case latency of each kernel, and their
     geometric mean *)
  let rows =
    List.filter_map
      (fun k ->
        match List.filter (fun (c, _) -> String.equal c.kernel k) all with
        | [] -> None
        | xs ->
          let v = Stat.median (List.map (fun (_, o) -> ms o.o_total) xs) in
          Ledger.set ("compile.kernel_ms." ^ k) v;
          Some v)
      kernels
  in
  Ledger.set "compile.kernel_ms.geomean" (Stat.geomean rows)

let min_passes = 3

let inputs seed = make_cases (Random.State.make [| seed; 0xc0 |])

let run ~seed ~seconds ~traced =
  let kernels, cases = inputs seed in
  Ledger.set "setup_s" (Harness.setup_in_child ~reps:9 ~workload:"compile" ~seed);
  let all, spanned =
    Harness.measure ~seconds ~min_passes ~traced (fun () -> run_pass cases)
  in
  Ledger.set "peak_rss_mb" (Harness.peak_rss_mb "self");
  (* a failed case counts once per pass; a pass with a failure is not
     used for timing *)
  let complete passes =
    List.filter_map
      (fun (outs, s) ->
        if List.for_all Result.is_ok outs then Some (List.map Result.get_ok outs, s)
        else None)
      passes
  in
  List.iter
    (fun (outs, _) ->
      Ledger.attempt (List.length outs);
      List.iter2
        (fun c -> function
          | Ok _ -> ()
          | Error e -> Ledger.fail "%s: %s" c.label (Printexc.to_string e))
        cases outs)
    all;
  let ok_passes = complete all in
  (match ok_passes with
  | [] -> Ledger.fail "no pass completed"
  | (first, _) :: rest ->
    let sig0 = signature cases first in
    List.iteri
      (fun i (outs, _) ->
        if signature cases outs <> sig0 then
          Ledger.fail "pass %d: exact counters differ from pass 1" (i + 2))
      rest;
    List.iter2 (fun c o -> check_case c o.o_verdict) cases first);
  let pass_s = Stat.median (List.map snd ok_passes) in
  Ledger.set "pass_s" pass_s;
  Ledger.set "throughput_per_s" (float_of_int (List.length cases) /. pass_s);
  Harness.latency_metrics ~min_samples:(min_passes * List.length cases)
    (List.concat_map (fun (outs, _) -> List.map (fun o -> o.o_total) outs) ok_passes);
  Ledger.seti "compile.cases" (List.length cases);
  Ledger.seti "passes" (List.length ok_passes);
  let spanned = complete spanned in
  if traced && spanned <> [] then layer_metrics kernels cases spanned;
  List.length spanned
