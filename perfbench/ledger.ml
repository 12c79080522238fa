(* The metric ledger of one run.  BENCHMARK.json is the single list of
   metric names and units: a run fills values by name, and [emit] prints
   exactly the listed end-to-end metrics (untraced run) or per-layer
   metrics (traced run) as the last line of standard output, times at
   reference speed.  A per-layer metric a workload does not exercise
   reads 0. *)

module J = Observe.Json

type entry = { name : string; unit_ : string }

let member_exn k j =
  match J.member k j with
  | Some v -> v
  | None -> failwith (Printf.sprintf "BENCHMARK.json: missing %S" k)

let entries k j =
  match member_exn k j with
  | J.List l ->
    List.map
      (fun e ->
        match (J.member "name" e, J.member "unit" e) with
        | Some (J.Str name), Some (J.Str unit_) -> { name; unit_ }
        | _ -> failwith ("BENCHMARK.json: bad entry in " ^ k))
      l
  | _ -> failwith ("BENCHMARK.json: " ^ k ^ " is not a list")

(* (end_to_end, per_layer) *)
let load file =
  let text = In_channel.with_open_bin file In_channel.input_all in
  match J.of_string text with
  | Error e -> failwith ("BENCHMARK.json: " ^ e)
  | Ok j -> (entries "end_to_end" j, entries "per_layer" j)

let values : (string, float) Hashtbl.t = Hashtbl.create 128
let set name v = Hashtbl.replace values name v

(* Values reported as measured, outside the reference-speed scaling. *)
let unscaled : (string, unit) Hashtbl.t = Hashtbl.create 4

let set_raw name v =
  set name v;
  Hashtbl.replace unscaled name ()
let seti name v = set name (float_of_int v)
let get name = Hashtbl.find_opt values name

(* Operations attempted and failed (errors, wrong outputs, counter drift). *)
let attempted = ref 0
let failed = ref 0
let problems : string list ref = ref []

let attempt n = attempted := !attempted + n

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failed;
      if List.length !problems < 20 then problems := msg :: !problems)
    fmt

(* Every value set during the run, as measured, for the human-readable
   report. *)
let dump oc =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) values []
  |> List.sort compare
  |> List.iter (fun (k, v) -> Printf.fprintf oc "  %-44s %.6g\n" k v);
  List.iter (Printf.fprintf oc "  FAILED: %s\n") (List.rev !problems)

(* Times (units s, ms, ns) are put at reference speed and rates (1/s)
   scaled inversely; see [Reference]. *)
let scaled ~k name unit_ v =
  if Hashtbl.mem unscaled name then v
  else
    match unit_ with
    | "s" | "ms" | "ns" -> v *. k
    | "1/s" -> v /. k
    | _ -> v

let emit ~traced (e2e, layers) =
  let listed = if traced then layers else e2e in
  let k = Reference.scale () in
  let metric { name; unit_ } =
    let value =
      match get name with
      | Some v when Float.is_finite v -> scaled ~k name unit_ v
      | Some _ -> failwith (Printf.sprintf "metric %s is not finite" name)
      | None when traced -> 0.0
      | None -> failwith (Printf.sprintf "workload did not measure %s" name)
    in
    (name, J.Obj [ ("value", J.Float value); ("unit", J.Str unit_) ])
  in
  let metrics = List.map metric listed in
  print_endline
    (J.to_string
       (J.Obj
          [ ("correct", J.Bool (!failed = 0));
            ("attempted", J.Int (max 1 !attempted));
            ("failed", J.Int !failed);
            ("metrics", J.Obj metrics) ]))
