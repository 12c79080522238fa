(* Order statistics over float samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks. *)
let quantile_sorted a p =
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let quantile xs p = quantile_sorted (sorted xs) p
let median xs = quantile xs 0.5

(* The highest percentile of the ladder that has at least ten samples
   beyond it when a run holds [min_samples] samples, or the maximum when
   none does.  Fixing it from the run's guaranteed minimum, not from the
   count a run happened to reach, keeps a faster program from moving the
   tail to a different percentile. *)
let ladder = [ 0.999; 0.99; 0.95; 0.9; 0.5 ]

let tail_percentile ~min_samples =
  let n = float_of_int min_samples in
  List.find_opt (fun p -> n *. (1.0 -. p) >= 10.0) ladder

let geomean xs =
  match List.filter (fun x -> x > 0.0) xs with
  | [] -> 0.0
  | ps ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0.0 ps
      /. float_of_int (List.length ps))

let sum xs = List.fold_left ( +. ) 0.0 xs
