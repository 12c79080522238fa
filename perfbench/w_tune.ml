(* The [tune] workload: the Section 8 search users actually run.
   [Tune.tune] with the shacklec defaults (exhaustive, depth 2, block size
   16, one domain, legality memo on) over the kernels that have legal
   candidates, ranked on two series that use the cache layer two ways:
   sp2_like (4-way) and small_cache (fully associative).  The N sweep ends
   in one large size, so interpreter recording and cache replay take most
   of the time. *)

module Model = Machine.Model
module M = Observe.Metrics

let kernels = [ "matmul"; "cholesky_right"; "gmtry"; "syrk" ]
let large_n = 48

type input = {
  order : (string * Loopir.Ast.program) list;
  options : Tune.options;
  first_n : int;
}

(* Inputs from the seed: kernel order, candidate shuffle (the ranking must
   not depend on it) and the two small sweep sizes. *)
let make_input rng =
  let progs = Harness.registry () in
  let order =
    Harness.shuffle rng (List.map (fun k -> (k, List.assoc k progs)) kernels)
  in
  let n1 = 22 + Random.State.int rng 3 and n2 = 30 + Random.State.int rng 3 in
  let options =
    { Tune.default_options with
      Tune.machines = [ Model.sp2_like; Model.small_cache ];
      shuffle_seed = Some (1 + Random.State.int rng 1_000_000);
      ns = [ n1; n2; large_n ] }
  in
  { order; options; first_n = n1 }

type run = {
  r_kernel : string;
  r_report : Tune.report;
  r_seconds : float;  (** outside timer around [Tune.tune] *)
  r_minor_words : float;
}

let tune_one input (kernel, prog) =
  let w0 = Gc.minor_words () in
  let report, r_seconds =
    Clock.time (fun () ->
        Span.with_ "tune.tune" (fun () ->
            Tune.tune ~options:input.options ~kernel
              ~params:(Harness.params_for kernel input.first_n)
              prog))
  in
  { r_kernel = kernel; r_report = report; r_seconds; r_minor_words = Gc.minor_words () -. w0 }

let run_pass input = List.map (tune_one input) input.order

(* Everything in a report that must repeat exactly from pass to pass. *)
let signature runs =
  List.map
    (fun r ->
      let rp = r.r_report and c = r.r_report.Tune.rp_counts in
      let s = rp.Tune.rp_solver in
      Printf.sprintf "%s enum=%d thm2=%d ill=%d unk=%d legal=%d var=%d bound=%d q=%d solves=%d fuel=%d spl=%d best=%s rows=%d"
        r.r_kernel c.Tune.n_enumerated c.n_pruned c.n_illegal c.n_unknown c.n_legal
        c.n_variants c.n_pruned_by_bound s.M.so_queries (M.solver_solves s)
        s.so_fuel_spent s.so_splinters
        (match Tune.best rp with
        | Some b -> Printf.sprintf "%s@%h" b.Tune.s_cand.Tune.c_label b.Tune.s_cycles
        | None -> "-")
        (List.length rp.Tune.rp_table))
    runs

(* Oracles on one pass: each winner's blocked code against the original,
   and the reference LRU re-counting the winner and one seeded other row
   at the first sweep size, on every series. *)
let check rng input runs =
  List.iter
    (fun r ->
      let prog = List.assoc r.r_kernel input.order in
      let rp = r.r_report in
      let n = input.first_n in
      let params = Harness.params_for r.r_kernel n in
      let init = Kernels.Inits.for_kernel r.r_kernel ~n in
      if rp.Tune.rp_failures <> [] then Ledger.fail "%s: evaluation failures" r.r_kernel;
      match rp.Tune.rp_table with
      | [] -> Ledger.fail "%s: no legal candidate" r.r_kernel
      | best :: rest ->
        let pipe = Pipeline.create prog in
        let diff = Pipeline.verify pipe ~spec:best.Tune.s_cand.Tune.c_spec ~params ~init in
        if not (diff <= 1e-9) then
          Ledger.fail "%s: winner %s differs from the original by %g" r.r_kernel
            best.Tune.s_cand.Tune.c_label diff;
        let sample =
          match rest with
          | [] -> [ best ]
          | _ -> [ best; List.nth rest (Random.State.int rng (List.length rest)) ]
        in
        List.iter
          (fun (s : Tune.scored) ->
            let recording = Pipeline.record pipe ~spec:s.Tune.s_cand.Tune.c_spec ~params ~init in
            List.iter
              (fun (mname, qname, (res : Model.result)) ->
                let machine =
                  List.find (fun m -> String.equal m.Model.m_name mname) input.options.Tune.machines
                and quality =
                  List.find (fun q -> String.equal q.Model.q_name qname) input.options.Tune.qualities
                in
                let expect =
                  List.map
                    (fun (l : Model.level_stat) ->
                      (l.Model.s_name, l.s_accesses, l.s_hits, l.s_misses, l.s_evictions))
                    res.Model.r_levels
                in
                if Ref_lru.count machine quality recording.Model.rec_trace <> expect then
                  Ledger.fail "%s: %s on %s: reference LRU disagrees with the simulator"
                    r.r_kernel s.Tune.s_cand.Tune.c_label mname)
              s.Tune.s_results)
          sample)
    runs

(* The simulation rows of some runs: (machine, trace accounting). *)
let sim_rows runs =
  List.concat_map
    (fun r ->
      List.filter_map
        (fun (s : M.sim) -> Option.map (fun tr -> (s.M.sim_machine, tr)) s.M.sim_trace)
        r.r_report.Tune.rp_metrics)
    runs

let layer_metrics (passes : (run list * float) list) =
  (* per pass, summed over kernels; the median over passes *)
  let med f = Stat.median (List.map (fun (runs, s) -> f runs s) passes) in
  let total f runs = Stat.sum (List.map f runs) in
  let timing f = total (fun r -> f r.r_report.Tune.rp_timing) in
  let enumerate = timing (fun t -> t.Tune.t_enumerate)
  and codegen = timing (fun t -> t.Tune.t_codegen)
  and evaluate = timing (fun t -> t.Tune.t_evaluate) in
  let record runs = Stat.sum (List.map (fun (_, tr) -> tr.M.tr_record_seconds) (sim_rows runs))
  and replay runs = Stat.sum (List.map (fun (_, tr) -> tr.M.tr_replay_seconds) (sim_rows runs)) in
  Ledger.set "tune.enumerate_s" (med (fun runs _ -> enumerate runs));
  Ledger.set "tune.codegen_s" (med (fun runs _ -> codegen runs));
  Ledger.set "tune.evaluate_s" (med (fun runs _ -> evaluate runs));
  (* codegen runs inside evaluate, so the attributed part is
     enumerate + evaluate *)
  Ledger.set "tune.unattributed_s"
    (med (fun runs _ -> total (fun r -> r.r_seconds) runs -. enumerate runs -. evaluate runs));
  (* self time per layer, attributed from the reports: enumeration
     (dependence analysis and legality, solver included), code generation,
     interpreter recording, cache replay; the rest of the outside time is
     the tuner's own *)
  let ms f = 1000.0 *. med f in
  Ledger.set "self_ms.shackle" (ms (fun runs _ -> enumerate runs));
  Ledger.set "self_ms.codegen" (ms (fun runs _ -> codegen runs));
  Ledger.set "self_ms.exec" (ms (fun runs _ -> record runs));
  Ledger.set "self_ms.machine" (ms (fun runs _ -> replay runs));
  Ledger.set "self_ms.tune"
    (ms (fun runs s -> s -. enumerate runs -. codegen runs -. record runs -. replay runs));
  (* exact counts, from one pass *)
  let runs = fst (List.hd passes) in
  let count f = total (fun r -> float_of_int (f r.r_report.Tune.rp_counts)) runs in
  Ledger.set "tune.candidates" (count (fun c -> c.Tune.n_enumerated));
  Ledger.set "tune.legal" (count (fun c -> c.Tune.n_legal));
  Ledger.set "tune.illegal" (count (fun c -> c.Tune.n_illegal));
  Ledger.set "tune.pruned_thm2" (count (fun c -> c.Tune.n_pruned));
  Ledger.set "tune.pruned_by_bound" (count (fun c -> c.Tune.n_pruned_by_bound));
  Ledger.set "tune.variants_recorded" (count (fun c -> c.Tune.n_variants));
  Ledger.set "tune.recorded_ratio"
    (count (fun c -> c.Tune.n_variants) /. count (fun c -> c.Tune.n_legal));
  Ledger.set "shackle.legal" (count (fun c -> c.Tune.n_legal));
  Ledger.set "shackle.illegal" (count (fun c -> c.Tune.n_illegal));
  Ledger.set "shackle.unknown" (count (fun c -> c.Tune.n_unknown));
  Harness.solver_metrics ~per:1.0 (List.map (fun r -> r.r_report.Tune.rp_solver) runs);
  (* per-access costs, pooled over the traced passes *)
  let all = List.concat_map fst passes in
  let rows = sim_rows all in
  let recorded = List.filter (fun (_, tr) -> tr.M.tr_executions = 1) rows in
  let per_access x rs =
    let n = Stat.sum (List.map (fun (_, tr) -> float_of_int tr.M.tr_length) rs) in
    if n > 0.0 then x /. n else 0.0
  in
  Ledger.set "exec.record_ns_per_access" (1e9 *. per_access (record all) recorded);
  List.iter
    (fun (m, key) ->
      let rs = List.filter (fun (name, _) -> String.equal name m.Model.m_name) rows in
      Ledger.set ("machine.replay_ns_per_access." ^ key)
        (1e9 *. per_access (Stat.sum (List.map (fun (_, tr) -> tr.M.tr_replay_seconds) rs)) rs))
    [ (Model.sp2_like, "sp2_like"); (Model.small_cache, "small_cache") ];
  Ledger.set "tune.minor_words_per_access"
    (per_access (total (fun r -> r.r_minor_words) all) recorded);
  Ledger.seti "trace.peak_bytes" (List.fold_left (fun m (_, tr) -> max m tr.M.tr_bytes) 0 rows);
  (* per-kernel rows and their geometric mean *)
  let per_kernel =
    List.map
      (fun k ->
        let v = med (fun runs _ -> (List.find (fun r -> String.equal r.r_kernel k) runs).r_seconds) in
        Ledger.set ("tune.kernel_s." ^ k) v;
        v)
      kernels
  in
  Ledger.set "tune.kernel_s.geomean" (Stat.geomean per_kernel)

let min_passes = 5

let inputs seed = make_input (Random.State.make [| seed; 0x7e |])

let run ~seed ~seconds ~traced =
  let input = inputs seed in
  let oracle_rng = Random.State.make [| seed; 0x0c |] in
  Ledger.set "setup_s" (Harness.setup_in_child ~reps:9 ~workload:"tune" ~seed);
  let all, spanned =
    Harness.measure ~seconds ~min_passes ~traced (fun () -> run_pass input)
  in
  Ledger.set "peak_rss_mb" (Harness.peak_rss_mb "self");
  Ledger.attempt (List.length kernels * List.length all);
  (match all with
  | [] -> ()
  | (first, _) :: rest ->
    let sig0 = signature first in
    List.iteri
      (fun i (runs, _) ->
        if signature runs <> sig0 then
          Ledger.fail "pass %d: exact counters differ from pass 1" (i + 2))
      rest;
    check oracle_rng input first);
  let pass_s = Stat.median (List.map snd all) in
  Ledger.set "pass_s" pass_s;
  Ledger.set "throughput_per_s" (float_of_int (List.length kernels) /. pass_s);
  Harness.latency_metrics ~min_samples:(min_passes * List.length kernels)
    (List.concat_map (fun (runs, _) -> List.map (fun r -> r.r_seconds) runs) all);
  Ledger.seti "passes" (List.length all);
  if traced then layer_metrics spanned;
  List.length spanned
