(* Deterministic initial data for each kernel, chosen so the computations
   are numerically well behaved: Cholesky and Gaussian elimination get
   diagonally dominant (hence SPD / nonsingular) matrices, ADI gets
   denominators bounded away from zero. *)

(* A cheap deterministic hash onto [0, 1). *)
let unit_hash name idx =
  let h = ref (Hashtbl.hash name land 0xFFFF) in
  for d = 0 to Array.length idx - 1 do
    h := ((!h * 1000003) + idx.(d)) land 0xFFFFFF
  done;
  float_of_int (!h land 0xFFFF) /. 65536.0

let generic name idx = 0.5 +. unit_hash name idx

let spd ~n name idx =
  if Array.length idx = 2 then begin
    let i = idx.(0) and j = idx.(1) in
    let v = 1.0 /. (1.0 +. float_of_int (abs (i - j))) in
    if i = j then v +. (2.0 *. float_of_int n) else v
  end
  else generic name idx

let for_kernel kernel ~n =
  match kernel with
  | "cholesky_right" | "cholesky_left" | "cholesky_banded" | "gmtry" ->
    spd ~n
  | "matmul" | "syrk" | "adi" | "qr" | _ -> generic
