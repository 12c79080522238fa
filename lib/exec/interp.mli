(** A compiled interpreter for the loop IR.

    Programs are compiled to closures over an integer frame (one slot per
    variable name), so running blocked code on realistic sizes is cheap
    enough to drive the memory-hierarchy simulator.  Every array element
    access can be reported to a {!Trace.sink} with its element address;
    reads are reported left-to-right, then the write — the access order the
    paper's machine would perform.

    Executing a statement allocates nothing (a [Record] sink's chunk
    flush aside, once per chunk).  Each array reference is resolved to
    its array when the program is compiled, so an access only computes a
    flat offset (bounds-checked by {!Store.offset}).  Float
    expressions evaluate into an unboxed register file owned by the
    compiled program: a subterm writes its value into a register, one
    closure per operator combines registers, and no float is ever boxed.
    Statement bodies and guard conjunctions run as plain loops and [&&]
    chains, without a closure per call.

    The sink is matched once when the program is compiled, so the default
    [No_trace] path pays nothing per access; [Callback] reproduces the old
    per-access closure interface; [Record] feeds a chunked trace recorder
    for the record-once / replay-many pipeline. *)

type trace = write:bool -> addr:int -> unit
(** The per-access callback shape used by [Trace.Callback]. *)

val run :
  ?sink:Trace.sink ->
  Store.t ->
  Loopir.Ast.program ->
  params:(string * int) list ->
  int
(** Executes the program in place on the store; returns the number of
    floating-point operations performed (adds, subs, muls, divs, sqrts,
    negations).  [sink] defaults to [Trace.No_trace]. *)

type prepared
(** A compiled program whose parameter bindings can be rebound cheaply
    between invocations — the block scheduler compiles each task body once
    per worker and re-invokes it with fresh block-coordinate bindings.
    Single-domain mutable state (frame, float registers, flop counter): one
    [prepared] per worker. *)

val prepare : ?sink:Trace.sink -> Store.t -> Loopir.Ast.program -> prepared

val invoke : prepared -> params:(string * int) list -> int
(** Runs the compiled body under the given bindings (parameters and any
    free loop variables); returns the flops performed by this invocation
    alone.  Slots not rebound keep their previous values, so callers must
    bind every free variable on every call.
    @raise Invalid_argument on a binding for a name the program never
    mentions — a silent drop here turns a caller's typo into a stale
    previous value. *)
