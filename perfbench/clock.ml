(* The benchmark's only clock: CLOCK_MONOTONIC through bechamel's stub, so
   no wall-clock adjustment can stretch or shrink a measurement. *)

let now_ns () = Monotonic_clock.now ()

let seconds_between t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-9

let since t0 = seconds_between t0 (now_ns ())

(* [time f] is [(f (), seconds f took)]. *)
let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, since t0)
