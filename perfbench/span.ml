(* In-memory spans around the calls the benchmark makes into each layer.

   A span is (name, start, end, parent, request id, thread).  Its layer is
   the name up to the first '.', so "dependence.analyze" belongs to
   [dependence].  Spans nest per thread; disabled, [with_] costs one
   branch.  Nothing is written until [write_chrome] at the end of a run. *)

type t = {
  id : int;
  parent : int;  (** 0 = root *)
  name : string;
  rid : int;  (** request id, -1 when the span is not a request *)
  tid : int;
  t0 : int64;
  t1 : int64;
}

let on = ref false
let lock = Mutex.create ()
let next_id = ref 0
let finished : t list ref = ref []

(* open span ids per thread, innermost first *)
let stacks : (int, (int * string * int * int64) list) Hashtbl.t =
  Hashtbl.create 4

let enter ?(rid = -1) name =
  let tid = Thread.id (Thread.self ()) in
  Mutex.protect lock (fun () ->
      incr next_id;
      let st = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
      Hashtbl.replace stacks tid ((!next_id, name, rid, Monotonic_clock.now ()) :: st))

(* Close the innermost open span of this thread. *)
let leave () =
  let t1 = Monotonic_clock.now () in
  let tid = Thread.id (Thread.self ()) in
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt stacks tid with
      | Some ((id, name, rid, t0) :: rest) ->
        Hashtbl.replace stacks tid rest;
        let parent = match rest with (p, _, _, _) :: _ -> p | [] -> 0 in
        finished := { id; parent; name; rid; tid; t0; t1 } :: !finished
      | Some [] | None -> ())

let with_ ?rid name f =
  if not !on then f ()
  else begin
    enter ?rid name;
    Fun.protect ~finally:leave f
  end

let all () = Mutex.protect lock (fun () -> List.rev !finished)

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let dur s = Clock.seconds_between s.t0 s.t1

(* Self time per layer: each span's duration minus the part its children
   cover, summed by layer.  Children never outlive their parent, so the
   covered part is the sum of the children's durations. *)
let self_seconds spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    spans;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      let l = layer_of s.name in
      Hashtbl.replace by_layer l
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt by_layer l)))
    spans;
  Hashtbl.fold (fun l v acc -> (l, v) :: acc) by_layer []
  |> List.sort compare

(* Chrome trace-event JSON ("X" complete events, microseconds). *)
let write_chrome file spans =
  let origin =
    List.fold_left (fun m s -> if Int64.compare s.t0 m < 0 then s.t0 else m)
      Int64.max_int spans
  in
  let us t = Int64.to_float (Int64.sub t origin) /. 1000.0 in
  let module J = Observe.Json in
  let ev s =
    J.Obj
      [ ("name", J.Str s.name);
        ("cat", J.Str (layer_of s.name));
        ("ph", J.Str "X");
        ("ts", J.Float (us s.t0));
        ("dur", J.Float (us s.t1 -. us s.t0));
        ("pid", J.Int 1);
        ("tid", J.Int s.tid);
        ( "args",
          J.Obj
            [ ("id", J.Int s.id); ("parent", J.Int s.parent); ("rid", J.Int s.rid) ]
        ) ]
  in
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (J.to_string
           (J.Obj
              [ ("traceEvents", J.List (List.map ev spans));
                ("displayTimeUnit", J.Str "ms") ]));
      output_char oc '\n')
