(* Machine-speed calibration.

   The benchmark runs on shared virtual machines whose speed drifts by tens
   of percent over minutes (a fixed pure-CPU loop varies that much).  A
   fixed computation that shares no code with the repository — hashing,
   sorting, short-lived allocation and an integer loop, the mix the
   compiler's own work has — is timed before every pass.  Reported times are scaled by
   [nominal_s / median reference time], i.e. they are seconds at the speed
   where the reference takes [nominal_s], and rates are scaled inversely.
   A change to the program moves its times and not the reference; a slower
   or busier machine moves both and cancels out.  The raw median reference
   time is reported as [reference_ms]. *)

(* What the reference takes on the 2-vCPU virtual machine the bounds in
   BENCHMARK.json were set on. *)
let nominal_s = 0.15

(* One small array, sorted and rehashed in place, plus short-lived lists
   that never leave the minor heap: the reference adds nothing to the
   process's peak memory. *)
let data = Array.make 16_384 0

let work () =
  let acc = ref 0 in
  for round = 1 to 20 do
    Array.iteri (fun i x -> data.(i) <- Hashtbl.hash (x + i + round) land 0xFFFF) data;
    Array.sort compare data;
    for _ = 1 to 200 do
      acc := !acc + List.length (List.init 100 (fun i -> i + round))
    done
  done;
  for i = 0 to 10_000_000 do
    acc := ((!acc * 31) + i) land 0xFFFFFF
  done;
  ignore (Sys.opaque_identity !acc)

let samples : float list ref = ref []

let sample () = samples := snd (Clock.time work) :: !samples

let median_s () = Stat.median !samples

(* Multiply a time by this to put it at reference speed. *)
let scale () = nominal_s /. median_s ()
