(* Run-loop helpers shared by the workloads. *)

(* Repeat [pass] until [seconds] have elapsed and at least [min_passes]
   passes ran; each pass is timed on its own.  Untraced, returns every
   (result, seconds) in order and no spanned passes.  Traced, passes
   alternate between spans off and on: returns every pass and the spanned
   ones, and records the tracing overhead as the median difference between
   each spanned pass and the unspanned pass just before it, so drift over
   the run (heap growth, a noisy neighbour) cancels out. *)
let measure ~seconds ~min_passes ~traced pass =
  let min_passes = if traced then max 2 min_passes else min_passes in
  let t0 = Clock.now_ns () in
  let rec go acc k =
    if k >= min_passes && Clock.since t0 >= seconds then List.rev acc
    else begin
      Reference.sample ();
      let spanned = traced && k mod 2 = 1 in
      Span.on := spanned;
      let r = Fun.protect ~finally:(fun () -> Span.on := false) (fun () -> Clock.time pass) in
      go ((spanned, r) :: acc) (k + 1)
    end
  in
  let runs = go [] 0 in
  Printf.eprintf "  passes:%s\n"
    (String.concat ""
       (List.map (fun (on, (_, s)) -> Printf.sprintf " %.3f%s" s (if on then "*" else "")) runs));
  let rec pairs = function
    | (false, (_, plain)) :: (true, (_, spanned)) :: rest -> (spanned -. plain) :: pairs rest
    | _ -> []
  in
  if traced then Ledger.set "span_overhead_ms" (1000.0 *. Stat.median (pairs runs));
  (List.map snd runs, List.filter_map (fun (on, r) -> if on then Some r else None) runs)

(* Set-up time of an in-process workload: a fresh copy of this program,
   started with [--setup-only], loads every library, builds the workload's
   inputs from the seed and exits — what a command-line user pays before
   any work starts.  Median of [reps] starts. *)
let setup_in_child ~reps ~workload ~seed =
  Reference.sample ();
  let exe = Sys.executable_name in
  let argv =
    [| exe; "--workload"; workload; "--seed"; string_of_int seed; "--setup-only" |]
  in
  let start () =
    let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    let (), s =
      Clock.time (fun () ->
          let pid = Unix.create_process exe argv null null null in
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> ()
          | _ -> failwith "set-up in a child process failed")
    in
    Unix.close null;
    s
  in
  Stat.median (List.init reps (fun _ -> start ()))

(* VmHWM of a process ("self" or a pid) in MiB, from /proc. *)
let peak_rss_mb who =
  let file = Printf.sprintf "/proc/%s/status" who in
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           match String.split_on_char ':' line with
           | [ "VmHWM"; rest ] ->
             Scanf.sscanf_opt (String.trim rest) "%d kB" (fun kb ->
                 float_of_int kb /. 1024.0)
           | _ -> None)
    |> Option.value ~default:nan

(* Deterministic shuffle driven by the run's RNG. *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Median and tail latency of a sample population (seconds in, ms out);
   see [Stat.tail_percentile] for the tail. *)
let latency_metrics ~min_samples samples_s =
  let a = Stat.sorted (List.map (fun s -> s *. 1000.0) samples_s) in
  let pct, tail =
    match Stat.tail_percentile ~min_samples with
    | Some p -> (p *. 100.0, Stat.quantile_sorted a p)
    | None -> (100.0, a.(Array.length a - 1))
  in
  Ledger.set "latency_p50_ms" (Stat.quantile_sorted a 0.5);
  Ledger.set "latency_tail_ms" tail;
  Ledger.set "latency_tail_pct" pct;
  Ledger.seti "latency_samples" (Array.length a)

(* Problem parameters and initial data per kernel, bound as shacklec binds
   them (the banded kernel's band is a third of the problem size). *)
let params_for kernel n =
  if String.equal kernel "cholesky_banded" then [ ("N", n); ("BW", max 1 (n / 3)) ]
  else [ ("N", n) ]

let init_for kernel n =
  let base = Kernels.Inits.for_kernel kernel ~n in
  if String.equal kernel "cholesky_banded" then
    let bw = max 1 (n / 3) in
    fun a idx -> if abs (idx.(0) - idx.(1)) > bw then 0.0 else base a idx
  else base

(* Per-layer self time from the spans, in ms per traced pass.  Values a
   workload attributes itself (from a report) are kept. *)
let span_self_times spans ~passes =
  let n = float_of_int (max 1 passes) in
  List.iter
    (fun (layer, s) ->
      let name = "self_ms." ^ layer in
      if Ledger.get name = None then Ledger.set name (1000.0 *. s /. n))
    (Span.self_seconds spans)

(* The kernel registry as a user hands it over: each kernel printed to
   concrete syntax and parsed back, as shacklec reads a program file. *)
let registry () =
  List.map
    (fun (k, p) ->
      match Pipeline.parse (Loopir.Ast.program_to_string p) with
      | Ok pipe -> (k, Pipeline.program pipe)
      | Error e -> failwith (Printf.sprintf "%s: reparse: %s" k e))
    (Kernels.Builders.all ())

(* polyhedra.* from solver-context snapshots, summed and divided by [per]
   (passes or cycles). *)
let solver_metrics ~per solvers =
  let module M = Observe.Metrics in
  let total f = Stat.sum (List.map (fun s -> float_of_int (f s)) solvers) /. per in
  let queries = total (fun s -> s.M.so_queries) in
  Ledger.set "polyhedra.queries" queries;
  Ledger.set "polyhedra.solves" (total M.solver_solves);
  Ledger.set "polyhedra.fuel" (total (fun s -> s.M.so_fuel_spent));
  Ledger.set "polyhedra.splinters" (total (fun s -> s.M.so_splinters));
  Ledger.set "polyhedra.unknowns" (total (fun s -> s.M.so_unknowns));
  Ledger.set "polyhedra.memo_hit_ratio"
    (if queries > 0.0 then total (fun s -> s.M.so_cache_hits) /. queries else 0.0)
