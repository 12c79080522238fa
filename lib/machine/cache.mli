(** A single set-associative LRU cache level.

    An access costs O(1) whatever the associativity, and allocates
    nothing: an open-addressing table (linear probing, backward-shift
    delete, more than four times as many entries as lines) maps a line to
    the fixed slot that holds it, and every set keeps its slots on an
    intrusive doubly linked list in recency order.  Hits move a slot to
    the front; a miss fills the next free way of its set, or evicts the
    set's least recently used line. *)

type config = {
  size_bytes : int;
  line_bytes : int;  (** power of two *)
  assoc : int;
}

type t

val create : config -> t
(** @raise Invalid_argument on inconsistent geometry. *)

val access : t -> int -> bool
(** [access c addr] probes (and fills) the cache with the non-negative
    byte address; returns [true] on hit. *)

val accesses : t -> int
val hits : t -> int
val misses : t -> int

val evictions : t -> int
(** Misses that displaced a resident line (capacity/conflict pressure, as
    opposed to cold fills into empty ways). *)

val reset : t -> unit
(** Empties every set and zeroes the counters. *)

val config : t -> config
