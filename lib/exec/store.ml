module Ast = Loopir.Ast
module E = Loopir.Expr

type layout =
  | Col_major
  | Row_major
  | Banded of int

type arr = {
  name : string;
  extents : int array;
  layout : layout;
  data : float array;
  base : int;
}

type t = { tbl : (string, arr) Hashtbl.t; order : string list }

let size_of extents layout =
  match layout with
  | Col_major | Row_major -> Array.fold_left ( * ) 1 extents
  | Banded bw ->
    if Array.length extents <> 2 then
      invalid_arg "Store: banded layout needs a rank-2 array";
    (bw + 1) * extents.(1)

let offset arr idx =
  if Array.length idx <> Array.length arr.extents then
    invalid_arg ("Store.offset: arity mismatch on " ^ arr.name);
  (match arr.layout with
   | Banded _ -> ()
   | Col_major | Row_major ->
     for d = 0 to Array.length idx - 1 do
       let i = idx.(d) in
       if i < 1 || i > arr.extents.(d) then
         invalid_arg
           (Printf.sprintf "Store.offset: %s index %d out of [1..%d]"
              arr.name i arr.extents.(d))
     done);
  match arr.layout with
  | Col_major ->
    let off = ref 0 and stride = ref 1 in
    for d = 0 to Array.length idx - 1 do
      off := !off + ((idx.(d) - 1) * !stride);
      stride := !stride * arr.extents.(d)
    done;
    !off
  | Row_major ->
    let off = ref 0 and stride = ref 1 in
    for d = Array.length idx - 1 downto 0 do
      off := !off + ((idx.(d) - 1) * !stride);
      stride := !stride * arr.extents.(d)
    done;
    !off
  | Banded bw ->
    let i = idx.(0) and j = idx.(1) in
    if i - j < 0 || i - j > bw || j < 1 || j > arr.extents.(1) then
      invalid_arg
        (Printf.sprintf "Store.offset: %s(%d,%d) outside band %d" arr.name i j
           bw);
    i - j + ((j - 1) * (bw + 1))

let create ?(layouts = []) (prog : Ast.program) ~params ~init =
  let env name =
    match List.assoc_opt name params with
    | Some v -> v
    | None -> invalid_arg ("Store.create: unbound parameter " ^ name)
  in
  let tbl = Hashtbl.create 8 in
  let base = ref 0 in
  let order = ref [] in
  List.iter
    (fun (d : Ast.array_decl) ->
      let extents =
        Array.of_list (List.map (fun e -> E.eval env e) d.extents)
      in
      let layout =
        Option.value ~default:Col_major (List.assoc_opt d.a_name layouts)
      in
      let size = size_of extents layout in
      let data = Array.make size 0.0 in
      let arr = { name = d.a_name; extents; layout; data; base = !base } in
      (* initialize through the layout so banded stores only hold the band *)
      (match layout with
       | Banded bw ->
         for j = 1 to extents.(1) do
           for i = j to min extents.(0) (j + bw) do
             data.(offset arr [| i; j |]) <- init d.a_name [| i; j |]
           done
         done
       | Col_major | Row_major ->
         let rec fill idx d' =
           if d' < 0 then data.(offset arr idx) <- init d.a_name idx
           else
             for v = 1 to extents.(d') do
               idx.(d') <- v;
               fill idx (d' - 1)
             done
         in
         if Array.length extents = 0 then ()
         else fill (Array.make (Array.length extents) 1) (Array.length extents - 1));
      base := !base + size;
      order := d.a_name :: !order;
      Hashtbl.add tbl d.a_name arr)
    prog.arrays;
  { tbl; order = List.rev !order }

let find t name =
  match Hashtbl.find_opt t.tbl name with
  | Some a -> a
  | None -> invalid_arg ("Store.find: unknown array " ^ name)

let get t name idx =
  let a = find t name in
  a.data.(offset a idx)

let set t name idx v =
  let a = find t name in
  a.data.(offset a idx) <- v

let copy t =
  let tbl = Hashtbl.create 8 in
  Hashtbl.iter
    (fun k a -> Hashtbl.add tbl k { a with data = Array.copy a.data })
    t.tbl;
  { t with tbl }

let arrays t = List.map (fun n -> find t n) t.order

let max_abs_diff a b =
  List.fold_left2
    (fun acc (x : arr) (y : arr) ->
      if Array.length x.data <> Array.length y.data then
        invalid_arg "Store.max_abs_diff: shape mismatch";
      let m = ref acc in
      Array.iteri
        (fun i v ->
          let d = Float.abs (v -. y.data.(i)) in
          if d > !m then m := d)
        x.data;
      !m)
    0.0 (arrays a) (arrays b)

let total_elements t =
  List.fold_left (fun acc a -> acc + Array.length a.data) 0 (arrays t)
