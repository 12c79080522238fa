type config = {
  size_bytes : int;
  line_bytes : int;
  assoc : int;
}

(* Every resident line occupies a fixed slot [set * assoc + way] until it is
   evicted, and the per-access work is O(1) whatever the associativity:

   - an open-addressing table (linear probing, backward-shift delete) maps
     a line number to its slot, and each slot remembers the entry naming
     it, so an eviction deletes its victim without a lookup;
   - each set threads its used slots on an intrusive doubly linked list,
     most recently used at [head], least recently used at [tail].

   A set fills ways [0 .. fill-1] in order; once it is full a miss reuses
   the tail slot.  Only plain int arrays are touched, so an access
   allocates nothing. *)
type t = {
  cfg : config;
  assoc : int;
  set_mask : int;
  line_shift : int;
  (* line -> slot table; [keys.(i) = -1] marks an empty entry *)
  keys : int array;
  slots : int array;
  tab_mask : int;
  hash_shift : int;
  (* per slot: its line, the table entry naming it, its list links *)
  line_of : int array;
  entry_of : int array;
  prev : int array;
  next : int array;
  (* per set; -1 = none *)
  head : int array;
  tail : int array;
  fill : int array;
  mutable n_accesses : int;
  mutable n_hits : int;
  mutable n_evictions : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go k v = if v <= 1 then k else go (k + 1) (v lsr 1) in
  go 0 n

let create cfg =
  if not (is_pow2 cfg.line_bytes) then
    invalid_arg "Cache.create: line size must be a power of two";
  if cfg.assoc <= 0 then invalid_arg "Cache.create: associativity";
  let lines = cfg.size_bytes / cfg.line_bytes in
  if lines <= 0 || lines mod cfg.assoc <> 0 then
    invalid_arg "Cache.create: size/line/assoc mismatch";
  let nsets = lines / cfg.assoc in
  if not (is_pow2 nsets) then
    invalid_arg "Cache.create: number of sets must be a power of two";
  (* more than four times as many entries as lines keeps probe runs short,
     also for the misses, whose probes run to an empty entry *)
  let tab_bits = log2 lines + 3 in
  let tab_size = 1 lsl tab_bits in
  { cfg;
    assoc = cfg.assoc;
    set_mask = nsets - 1;
    line_shift = log2 cfg.line_bytes;
    keys = Array.make tab_size (-1);
    slots = Array.make tab_size 0;
    tab_mask = tab_size - 1;
    hash_shift = Sys.int_size - tab_bits;
    line_of = Array.make lines (-1);
    entry_of = Array.make lines 0;
    prev = Array.make lines (-1);
    next = Array.make lines (-1);
    head = Array.make nsets (-1);
    tail = Array.make nsets (-1);
    fill = Array.make nsets 0;
    n_accesses = 0;
    n_hits = 0;
    n_evictions = 0 }

(* Multiplicative hashing: the top [tab_bits] bits of [line * odd]. *)
let hash c line = (line * 0x2545F4914F6CDD1D) lsr c.hash_shift

(* The entry holding [line], or the empty entry where its probe run ends. *)
let rec find keys mask line i =
  let k = Array.unsafe_get keys i in
  if k = line || k < 0 then i else find keys mask line ((i + 1) land mask)

(* Backward-shift delete: the entry at [hole] has just been emptied; pull
   later entries of its run back into it when the hole lies on their probe
   path.  The hole itself is empty, so the scan always stops. *)
let rec close_gap c hole j =
  let k = Array.unsafe_get c.keys j in
  if k >= 0 then
    if (j - hash c k) land c.tab_mask >= (j - hole) land c.tab_mask then begin
      Array.unsafe_set c.keys hole k;
      let s = Array.unsafe_get c.slots j in
      Array.unsafe_set c.slots hole s;
      Array.unsafe_set c.entry_of s hole;
      Array.unsafe_set c.keys j (-1);
      close_gap c j ((j + 1) land c.tab_mask)
    end
    else close_gap c hole ((j + 1) land c.tab_mask)

let remove c i =
  Array.unsafe_set c.keys i (-1);
  close_gap c i ((i + 1) land c.tab_mask)

let unlink c set s =
  let p = Array.unsafe_get c.prev s and n = Array.unsafe_get c.next s in
  if p >= 0 then Array.unsafe_set c.next p n else Array.unsafe_set c.head set n;
  if n >= 0 then Array.unsafe_set c.prev n p else Array.unsafe_set c.tail set p

let push_front c set s =
  let h = Array.unsafe_get c.head set in
  Array.unsafe_set c.prev s (-1);
  Array.unsafe_set c.next s h;
  if h >= 0 then Array.unsafe_set c.prev h s else Array.unsafe_set c.tail set s;
  Array.unsafe_set c.head set s

(* A miss of [line], whose probe run ends at the empty entry [i]: fill the
   set's next free way, or reuse its least recently used slot. *)
let miss c set i line =
  let used = Array.unsafe_get c.fill set in
  let s =
    if used < c.assoc then begin
      Array.unsafe_set c.fill set (used + 1);
      (set * c.assoc) + used
    end
    else Array.unsafe_get c.tail set
  in
  (* insert before deleting the victim: [i] is only known to end the new
     line's probe run while the table is unchanged *)
  let victim = Array.unsafe_get c.entry_of s in
  Array.unsafe_set c.keys i line;
  Array.unsafe_set c.slots i s;
  Array.unsafe_set c.entry_of s i;
  if used = c.assoc then begin
    c.n_evictions <- c.n_evictions + 1;
    remove c victim;
    unlink c set s
  end;
  Array.unsafe_set c.line_of s line;
  push_front c set s

let access c addr =
  c.n_accesses <- c.n_accesses + 1;
  let line = addr asr c.line_shift in
  let set = line land c.set_mask in
  let mru = Array.unsafe_get c.head set in
  if mru >= 0 && Array.unsafe_get c.line_of mru = line then begin
    (* a repeat hit on the most recently used line: nothing moves *)
    c.n_hits <- c.n_hits + 1;
    true
  end
  else begin
    let i = find c.keys c.tab_mask line (hash c line) in
    if Array.unsafe_get c.keys i = line then begin
      c.n_hits <- c.n_hits + 1;
      let s = Array.unsafe_get c.slots i in
      unlink c set s;
      push_front c set s;
      true
    end
    else begin
      miss c set i line;
      false
    end
  end

let accesses c = c.n_accesses
let hits c = c.n_hits
let misses c = c.n_accesses - c.n_hits
let evictions c = c.n_evictions

let reset c =
  Array.fill c.keys 0 (Array.length c.keys) (-1);
  Array.fill c.head 0 (Array.length c.head) (-1);
  Array.fill c.tail 0 (Array.length c.tail) (-1);
  Array.fill c.fill 0 (Array.length c.fill) 0;
  c.n_accesses <- 0;
  c.n_hits <- 0;
  c.n_evictions <- 0

let config c = c.cfg
