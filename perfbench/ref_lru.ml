(* A deliberately naive reference for the cache simulator: every set is an
   OCaml list of tags, most recently used first, and each level is probed
   only when the level above misses.  It shares no code with
   [Machine.Cache]; the tune workload re-counts a sample of simulated
   points with it and compares per-level hits, misses and evictions. *)

type level = {
  name : string;
  line_bytes : int;
  nsets : int;
  assoc : int;
  sets : int list array;
  mutable accesses : int;
  mutable hits : int;
  mutable evictions : int;
}

let level (l : Machine.Model.level_spec) =
  let c = l.Machine.Model.l_cache in
  let lines = c.Machine.Cache.size_bytes / c.Machine.Cache.line_bytes in
  let nsets = lines / c.Machine.Cache.assoc in
  { name = l.Machine.Model.l_name;
    line_bytes = c.Machine.Cache.line_bytes;
    nsets;
    assoc = c.Machine.Cache.assoc;
    sets = Array.make nsets [];
    accesses = 0;
    hits = 0;
    evictions = 0 }

let rec take k = function
  | [] -> []
  | x :: rest -> if k = 0 then [] else x :: take (k - 1) rest

(* true on hit *)
let probe lv byte =
  lv.accesses <- lv.accesses + 1;
  let line = byte / lv.line_bytes in
  let set = line mod lv.nsets and tag = line / lv.nsets in
  let ways = lv.sets.(set) in
  if List.mem tag ways then begin
    lv.hits <- lv.hits + 1;
    lv.sets.(set) <- tag :: List.filter (fun t -> t <> tag) ways;
    true
  end
  else begin
    if List.length ways >= lv.assoc then lv.evictions <- lv.evictions + 1;
    lv.sets.(set) <- take lv.assoc (tag :: ways);
    false
  end

(* Per level: (name, accesses, hits, misses, evictions). *)
let count (m : Machine.Model.t) (q : Machine.Model.quality) trace =
  let levels = List.map level m.Machine.Model.levels in
  let last = ref None in
  Trace.iter trace (fun ~write:_ ~addr ->
      if q.Machine.Model.forwarding && !last = Some addr then ()
      else begin
        last := Some addr;
        let byte = addr * m.Machine.Model.elem_bytes in
        ignore (List.exists (fun lv -> probe lv byte) levels)
      end);
  List.map
    (fun lv -> (lv.name, lv.accesses, lv.hits, lv.accesses - lv.hits, lv.evictions))
    levels
