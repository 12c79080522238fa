(* The [serve] workload: the shackled daemon as callers such as
   [shacklec --connect] see it.  [shackled serve] runs as a child process
   with one worker domain on an empty cache directory; this process drives
   it over two connections in a closed loop (each connection sends its
   next request only after the previous reply).  Given [cpu], the daemon
   is pinned to that CPU (with taskset) and the load generator runs on
   another, so the two do not contend for one core.  The seeded trace mixes
   Legal/Probe (most requests, with repeats), Sim at small N and a few
   single-factor Tune requests.  After a Shutdown, a restart on the same
   directory replays the same trace: the cold phase appends to the disk
   cache, the warm phase answers every legality query from it. *)

module Proto = Server.Proto
module Wire = Server.Wire
module J = Observe.Json
module M = Observe.Metrics

let tune_kernels = [ "matmul"; "cholesky_right"; "gmtry"; "syrk" ]

(* Inputs from the seed; the mix is fixed so that seeds differ in sizes,
   machines and order, not in how much work the trace holds.  Legal/Probe
   ask each named (kernel, spec) at two seeded block sizes, four times each
   way, so the trace repeats queries; Sim visits every named spec and the
   original program twice; Tune visits each kernel once.  Tune requests
   and the requests queued behind them stay under 5% of the trace, so the
   p95 tail is not decided by how they happen to overlap. *)
let make_trace rng =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let keys =
    List.concat_map
      (fun (k, specs) -> List.map (fun s -> (k, s)) specs)
      W_compile.named
  in
  let verdicts =
    List.concat_map
      (fun (kernel, spec) ->
        let sizes = [ pick [ 4; 8 ]; pick [ 16; 32 ] ] in
        List.concat_map
          (fun size ->
            List.concat
              (List.init 4 (fun _ ->
                   [ Proto.Legal { kernel; spec; size; budget_ms = None };
                     Proto.Probe { kernel; spec; size; budget_ms = None } ])))
          sizes)
      keys
  in
  let sims =
    List.concat_map
      (fun (kernel, spec) ->
        List.init 2 (fun _ ->
            Proto.Sim
              { kernel;
                spec;
                size = pick [ 4; 8 ];
                n = 16;
                machine = pick [ "sp2-like"; "two-level" ];
                quality = pick [ "untuned"; "tuned" ];
                budget_ms = None }))
      (("matmul", None) :: List.map (fun (k, s) -> (k, Some s)) keys)
  in
  let tunes =
    List.map
      (fun kernel -> Proto.Tune { kernel; size = 8; n = 12; budget_ms = None })
      tune_kernels
  in
  Array.of_list (Harness.shuffle rng (verdicts @ sims @ tunes))

let op_name req = Wire.opcode_string (Proto.opcode_of_request req)

(* ------------------------------------------------------------------ *)
(* The daemon as a child process                                       *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; socket : string }

let children : int list ref = ref []

(* Kill and reap any daemon still running when the benchmark exits. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !children)

let start ~exe ~cpu ~dir =
  let socket = Filename.concat dir "s.sock" in
  let log = Unix.openfile (Filename.concat dir "daemon.log") [ Unix.O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  let t0 = Clock.now_ns () in
  let args = [ exe; "serve"; "--socket"; socket; "--cache-dir"; dir; "--domains"; "1" ] in
  let argv =
    Array.of_list
      (match cpu with
      | Some c -> "taskset" :: "-c" :: string_of_int c :: args
      | None -> args)
  in
  let pid = Unix.create_process argv.(0) argv Unix.stdin log log in
  Unix.close log;
  children := pid :: !children;
  let rec wait_ready tries =
    match Server.Client.connect socket with
    | c -> Server.Client.close c
    | exception Unix.Unix_error _ ->
      if tries = 0 then failwith "daemon did not accept connections within 20 s";
      if fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then begin
        children := List.filter (fun p -> p <> pid) !children;
        failwith "daemon exited before accepting connections"
      end;
      Unix.sleepf 0.002;
      wait_ready (tries - 1)
  in
  wait_ready 10_000;
  ({ pid; socket }, Clock.since t0)

let rpc_once d req =
  let c = Server.Client.connect d.socket in
  Fun.protect
    ~finally:(fun () -> Server.Client.close c)
    (fun () -> Server.Client.rpc c req)

(* Shut the daemon down and reap it; one that has not exited after 10 s
   is killed and counted as a failure. *)
let stop d =
  (match rpc_once d Proto.Shutdown with
  | Ok _ -> ()
  | Error e -> Ledger.fail "shutdown: %s" e.Proto.e_message);
  let rec reap tries =
    if fst (Unix.waitpid [ Unix.WNOHANG ] d.pid) = 0 then
      if tries = 0 then begin
        Ledger.fail "daemon %d ignored Shutdown" d.pid;
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid)
      end
      else begin
        Unix.sleepf 0.005;
        reap (tries - 1)
      end
  in
  reap 2_000;
  children := List.filter (fun p -> p <> d.pid) !children

let stats d =
  match rpc_once d Proto.Stats with
  | Ok (Proto.R_stats j) -> j
  | Ok _ -> failwith "stats: unexpected reply"
  | Error e -> failwith ("stats: " ^ e.Proto.e_message)

(* ------------------------------------------------------------------ *)
(* One phase: the whole trace over two closed-loop connections          *)
(* ------------------------------------------------------------------ *)

type reply = {
  ok : bool;
  payload : string;  (** reply frame payload bytes *)
  seconds : float;  (** client-side round trip *)
}

let connections = 2

let drive d trace =
  let n = Array.length trace in
  let replies = Array.make n { ok = false; payload = ""; seconds = 0.0 } in
  let client k () =
    let c = Server.Client.connect d.socket in
    Fun.protect
      ~finally:(fun () -> Server.Client.close c)
      (fun () ->
        let i = ref k in
        while !i < n do
          let req = trace.(!i) in
          let raw =
            { Wire.r_op = Wire.opcode_byte (Proto.opcode_of_request req);
              r_id = !i + 1;
              r_payload = Proto.request_to_payload req }
          in
          let r, seconds =
            Clock.time (fun () ->
                Span.with_ ~rid:(!i + 1) ("server.rpc." ^ op_name req) (fun () ->
                    Server.Client.rpc_raw c raw))
          in
          replies.(!i) <-
            (match r with
            | Ok rep ->
              { ok = rep.Wire.r_id = !i + 1 && rep.Wire.r_op = Wire.opcode_byte Wire.Reply_ok;
                payload = rep.Wire.r_payload;
                seconds }
            | Error msg -> { ok = false; payload = "transport: " ^ msg; seconds });
          i := !i + connections
        done)
  in
  let (), s =
    Clock.time (fun () ->
        let threads = List.init connections (fun k -> Thread.create (client k) ()) in
        List.iter Thread.join threads)
  in
  (replies, s)

type cycle = {
  cold : reply array;
  warm : reply array;
  cold_s : float;
  warm_s : float;
  starts : float * float;
  cold_stats : J.t;
  warm_stats : J.t;
  rss_mb : float;
}

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let run_cycle ~exe ~cpu ~dir trace =
  if Sys.file_exists dir then rm_rf dir;
  Sys.mkdir dir 0o755;
  let phase name =
    let d, start_s = start ~exe ~cpu ~dir in
    let replies, s = Span.with_ ("serve." ^ name) (fun () -> drive d trace) in
    let st = stats d in
    let rss = Harness.peak_rss_mb (string_of_int d.pid) in
    stop d;
    (replies, s, start_s, st, rss)
  in
  let cold, cold_s, cold_start, cold_stats, cold_rss = phase "cold" in
  let warm, warm_s, warm_start, warm_stats, warm_rss = phase "warm" in
  rm_rf dir;
  { cold; warm; cold_s; warm_s; starts = (cold_start, warm_start); cold_stats; warm_stats;
    rss_mb = Float.max cold_rss warm_rss }

(* ------------------------------------------------------------------ *)
(* Reading the stats RPC                                                *)
(* ------------------------------------------------------------------ *)

let path j keys =
  List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some j) keys

let num j keys =
  match path j keys with
  | Some (J.Int i) -> float_of_int i
  | Some (J.Float f) -> f
  | _ -> 0.0

let solver j =
  match Option.map M.solver_of_json (path j [ "solver" ]) with
  | Some (Ok s) -> s
  | _ -> failwith "stats: no solver block"

let diskcache j =
  match Option.map M.diskcache_of_json (path j [ "diskcache" ]) with
  | Some (Ok d) -> d
  | _ -> failwith "stats: no diskcache block"

(* ------------------------------------------------------------------ *)
(* Checks and metrics                                                   *)
(* ------------------------------------------------------------------ *)

let check trace cycles =
  let first = List.hd cycles in
  List.iteri
    (fun ci c ->
      Array.iteri
        (fun i req ->
          let cold = c.cold.(i) and warm = c.warm.(i) in
          if not cold.ok then Ledger.fail "cycle %d cold #%d %s: %s" ci (i + 1) (op_name req) cold.payload;
          if not warm.ok then Ledger.fail "cycle %d warm #%d %s: %s" ci (i + 1) (op_name req) warm.payload;
          if cold.ok && warm.ok && not (String.equal cold.payload warm.payload) then
            Ledger.fail "cycle %d #%d %s: warm reply differs from cold" ci (i + 1) (op_name req);
          if not (String.equal cold.payload first.cold.(i).payload) then
            Ledger.fail "cycle %d #%d %s: reply differs from cycle 0" ci (i + 1) (op_name req))
        trace;
      let warm_solves = M.solver_solves (solver c.warm_stats) in
      if warm_solves <> 0 then Ledger.fail "cycle %d: warm phase ran %d solves" ci warm_solves;
      let appended = (diskcache c.cold_stats).M.dc_appended
      and appended0 = (diskcache first.cold_stats).M.dc_appended in
      if appended <> appended0 then
        Ledger.fail "cycle %d: diskcache appended %d, cycle 0 appended %d" ci appended appended0;
      let solves = M.solver_solves (solver c.cold_stats)
      and solves0 = M.solver_solves (solver first.cold_stats) in
      if solves <> solves0 then
        Ledger.fail "cycle %d: cold phase ran %d solves, cycle 0 ran %d" ci solves solves0)
    cycles

let ops = [ "legal"; "probe"; "sim"; "tune" ]
let error_codes = [ "failed"; "overloaded"; "deadline_exceeded" ]

let layer_metrics trace cycles =
  let ncyc = float_of_int (List.length cycles) in
  let per_cycle f = Stat.sum (List.map f cycles) /. ncyc in
  let both f c = f c.cold_stats +. f c.warm_stats in
  let client_ms op =
    List.concat_map
      (fun c ->
        List.concat_map
          (fun replies ->
            List.filter_map
              (fun i -> if String.equal (op_name trace.(i)) op then Some (1000.0 *. replies.(i).seconds) else None)
              (List.init (Array.length trace) Fun.id))
          [ c.cold; c.warm ])
      cycles
  in
  let client_total = ref 0.0 and server_total = ref 0.0 and count = ref 0.0 in
  List.iter
    (fun op ->
      let samples = client_ms op in
      let n = float_of_int (List.length samples) in
      let server = Stat.sum (List.map (both (fun j -> num j [ "server"; "ops"; op; "count" ] *. num j [ "server"; "ops"; op; "mean_ms" ])) cycles) in
      let served = Stat.sum (List.map (both (fun j -> num j [ "server"; "ops"; op; "count" ])) cycles) in
      if n > 0.0 then begin
        Ledger.set ("server.rpc_ms." ^ op) (Stat.sum samples /. n);
        Ledger.set ("server.handle_ms." ^ op) (if served > 0.0 then server /. served else 0.0);
        client_total := !client_total +. Stat.sum samples;
        server_total := !server_total +. server;
        count := !count +. n
      end)
    ops;
  Ledger.set "server.wire_wait_ms" ((!client_total -. !server_total) /. !count);
  Ledger.set "server.collapses" (per_cycle (both (fun j -> num j [ "server"; "batch_collapses" ])));
  Ledger.set "server.shed" (per_cycle (both (fun j -> num j [ "server"; "shed" ])));
  let errors = per_cycle (both (fun j -> num j [ "server"; "errors" ])) in
  let named = ref 0.0 in
  List.iter
    (fun code ->
      let v = per_cycle (both (fun j -> num j [ "server"; "error_codes"; code ])) in
      named := !named +. v;
      Ledger.set ("server.errors." ^ code) v)
    error_codes;
  Ledger.set "server.errors.other" (errors -. !named);
  let dc f phase = per_cycle (fun c -> float_of_int (f (diskcache (phase c)))) in
  Ledger.set "diskcache.appended" (dc (fun d -> d.M.dc_appended) (fun c -> c.cold_stats));
  Ledger.set "diskcache.bytes" (dc (fun d -> d.M.dc_bytes) (fun c -> c.cold_stats));
  Ledger.set "diskcache.hits" (dc (fun d -> d.M.dc_hits) (fun c -> c.warm_stats));
  Ledger.set "diskcache.misses" (dc (fun d -> d.M.dc_misses) (fun c -> c.warm_stats));
  Harness.solver_metrics ~per:ncyc (List.map (fun c -> solver c.cold_stats) cycles);
  Ledger.set "polyhedra.warm_solves"
    (per_cycle (fun c -> float_of_int (M.solver_solves (solver c.warm_stats))));
  Ledger.set "server.start_ms.cold" (1000.0 *. Stat.median (List.map (fun c -> fst c.starts) cycles));
  Ledger.set "server.start_ms.warm" (1000.0 *. Stat.median (List.map (fun c -> snd c.starts) cycles));
  let verdicts v =
    per_cycle (fun c ->
        float_of_int
          (Array.fold_left
             (fun acc r ->
               match Proto.reply_of_payload ~op:Wire.Reply_ok r.payload with
               | Ok (Proto.R_verdict { verdict }) when String.equal verdict v -> acc + 1
               | _ -> acc)
             0 c.cold))
  in
  Ledger.set "shackle.legal" (verdicts "legal");
  Ledger.set "shackle.illegal" (verdicts "illegal");
  (* the daemon's busy time per cycle; the client's share beyond it is
     server.wire_wait_ms *)
  Ledger.set "self_ms.server" (!server_total /. ncyc)

let min_cycles = 2

let run ~exe ~cpu ~out_dir ~seed ~seconds ~traced =
  let rng = Random.State.make [| seed; 0x5e |] in
  let trace = make_trace rng in
  let n = Array.length trace in
  let next = ref 0 in
  let cycle () =
    incr next;
    let dir = Filename.concat out_dir (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) !next) in
    run_cycle ~exe ~cpu ~dir trace
  in
  let cycles, spanned = Harness.measure ~seconds ~min_passes:min_cycles ~traced cycle in
  let cycles = List.map fst cycles and spanned = List.map fst spanned in
  Ledger.attempt (2 * n * List.length cycles);
  check trace cycles;
  let starts = List.concat_map (fun c -> [ fst c.starts; snd c.starts ]) cycles in
  Ledger.set "setup_s" (Stat.median starts);
  Ledger.set "peak_rss_mb" (Stat.median (List.map (fun c -> c.rss_mb) cycles));
  Ledger.set "pass_s" (Stat.median (List.map (fun c -> c.cold_s) cycles));
  Ledger.set "serve.cold_rps" (Stat.median (List.map (fun c -> float_of_int n /. c.cold_s) cycles));
  Ledger.set "throughput_per_s" (Stat.median (List.map (fun c -> float_of_int n /. c.warm_s) cycles));
  Harness.latency_metrics ~min_samples:(min_cycles * n)
    (List.concat_map (fun c -> Array.to_list (Array.map (fun r -> r.seconds) c.warm)) cycles);
  Ledger.seti "serve.requests" n;
  Ledger.seti "passes" (List.length cycles);
  List.iteri
    (fun i c -> Printf.eprintf "  cycle %d: cold %.3f s, warm %.3f s\n" i c.cold_s c.warm_s)
    cycles;
  if traced then layer_metrics trace spanned;
  List.length spanned
