(* The repository benchmark.

     perf.exe --workload compile|tune|serve --seed N --seconds S --trace 0|1
              --shackled PATH --out-dir DIR [--bench-json FILE] [--daemon-cpu C]

   Untraced (--trace 0) it measures the workload for S seconds and prints
   the end-to-end metrics listed in BENCHMARK.json; traced (--trace 1) it
   alternates passes without and with spans, prints the per-layer metrics,
   including each layer's self time and the tracing overhead, and writes
   the spans as Chrome trace-event JSON into DIR.  Every run checks its
   outputs against independent oracles; the last line of standard output
   is the JSON result and a readable summary of every value goes to
   standard error.  Times are reported at reference speed (see
   Reference).  --daemon-cpu pins the serve workload's daemon to that CPU.
   --setup-only (used by the set-up measurement) builds the inputs and
   exits. *)

let usage () =
  prerr_endline
    "usage: perf.exe --workload compile|tune|serve --seed N --seconds S --trace 0|1 \
     --shackled PATH --out-dir DIR [--bench-json FILE] [--daemon-cpu C]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let shackled = ref "" and out_dir = ref "" and bench_json = ref "BENCHMARK.json" in
  let daemon_cpu = ref None and setup_only = ref false in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--shackled" :: v :: rest -> shackled := v; parse rest
    | "--out-dir" :: v :: rest -> out_dir := v; parse rest
    | "--bench-json" :: v :: rest -> bench_json := v; parse rest
    | "--daemon-cpu" :: v :: rest -> daemon_cpu := Some (int_of_string v); parse rest
    | "--setup-only" :: rest -> setup_only := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  (* the child a set-up measurement starts: build the inputs and exit *)
  if !setup_only then begin
    (match !workload with
    | "compile" -> ignore (W_compile.inputs !seed)
    | "tune" -> ignore (W_tune.inputs !seed)
    | _ -> usage ());
    exit 0
  end;
  if String.equal !out_dir "" || not (Sys.file_exists !out_dir) then usage ();
  (* a daemon that dies mid-request must surface as a failed request, not
     kill the benchmark *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let spec = Ledger.load !bench_json in
  let traced = !trace = 1 in
  let seed = !seed and seconds = !seconds in
  let spanned_passes =
    match !workload with
    | "compile" -> W_compile.run ~seed ~seconds ~traced
    | "tune" -> W_tune.run ~seed ~seconds ~traced
    | "serve" ->
      if String.equal !shackled "" then usage ();
      W_serve.run ~exe:!shackled ~cpu:!daemon_cpu ~out_dir:!out_dir ~seed ~seconds ~traced
    | _ -> usage ()
  in
  if traced then begin
    let spans = Span.all () in
    Harness.span_self_times spans ~passes:spanned_passes;
    Span.write_chrome
      (Filename.concat !out_dir (Printf.sprintf "trace-%s-%d.json" !workload seed))
      spans
  end;
  Ledger.set_raw "reference_ms" (1000.0 *. Reference.median_s ());
  Ledger.set_raw "raw_pass_s" (Option.value ~default:nan (Ledger.get "pass_s"));
  Ledger.set "failed_ratio"
    (float_of_int !Ledger.failed /. float_of_int (max 1 !Ledger.attempted));
  Printf.eprintf "%s seed=%d trace=%d: %d attempted, %d failed; times x %.4f to reach reference speed\n"
    !workload seed !trace !Ledger.attempted !Ledger.failed (Reference.scale ());
  Ledger.dump stderr;
  Ledger.emit ~traced spec
