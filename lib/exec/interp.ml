module Ast = Loopir.Ast
module E = Loopir.Expr
module Fexpr = Loopir.Fexpr

type trace = write:bool -> addr:int -> unit

(* Variable slots: one per distinct name.  Loop variable names may repeat
   across sibling loops (disjoint lifetimes), so sharing a slot is safe. *)
type env = { slots : (string, int) Hashtbl.t; mutable count : int }

let slot env name =
  match Hashtbl.find_opt env.slots name with
  | Some i -> i
  | None ->
    let i = env.count in
    env.count <- env.count + 1;
    Hashtbl.add env.slots name i;
    i

let fdiv_int a d =
  let q = a / d and r = a mod d in
  if r < 0 then q - 1 else q

let rec compile_iexpr env (e : E.t) : int array -> int =
  match e with
  | E.Var s ->
    let i = slot env s in
    fun frame -> frame.(i)
  | E.Const n -> fun _ -> n
  | E.Add (a, b) ->
    let ca = compile_iexpr env a and cb = compile_iexpr env b in
    fun f -> ca f + cb f
  | E.Sub (a, b) ->
    let ca = compile_iexpr env a and cb = compile_iexpr env b in
    fun f -> ca f - cb f
  | E.Mul (k, a) ->
    let ca = compile_iexpr env a in
    fun f -> k * ca f
  | E.FloorDiv (a, d) ->
    let ca = compile_iexpr env a in
    fun f -> fdiv_int (ca f) d
  | E.CeilDiv (a, d) ->
    let ca = compile_iexpr env a in
    fun f -> -fdiv_int (-ca f) d
  | E.Max (a, b) ->
    let ca = compile_iexpr env a and cb = compile_iexpr env b in
    fun f -> max (ca f) (cb f)
  | E.Min (a, b) ->
    let ca = compile_iexpr env a and cb = compile_iexpr env b in
    fun f -> min (ca f) (cb f)

(* Resolve a reference at compile time: the array is fixed, so only its
   flat offset is computed per access (into a per-reference index buffer,
   through the one bounds-checked [Store.offset]). *)
let compile_ref env store (r : Fexpr.ref_) =
  let arr = Store.find store r.array in
  let idx_fns = Array.of_list (List.map (compile_iexpr env) r.idx) in
  let nidx = Array.length idx_fns in
  let buf = Array.make nidx 0 in
  ( arr,
    fun frame ->
      for d = 0 to nidx - 1 do
        buf.(d) <- idx_fns.(d) frame
      done;
      Store.offset arr buf )

(* Registers needed to evaluate [e] when its result goes to register r and
   subterms use r+1, r+2, ... *)
let rec fexpr_regs (e : Fexpr.t) =
  match e with
  | Fexpr.Ref _ | Fexpr.Const _ -> 1
  | Fexpr.Neg a | Fexpr.Sqrt a -> fexpr_regs a
  | Fexpr.Bin (_, a, b) -> max (fexpr_regs a) (1 + fexpr_regs b)

let rec stmt_regs acc (node : Ast.t) =
  match node with
  | Ast.Stmt s -> max acc (fexpr_regs s.rhs)
  | Ast.If (_, body) -> List.fold_left stmt_regs acc body
  | Ast.Loop l -> List.fold_left stmt_regs acc l.body

(* The compilation context of one [prepared]: the float register file
   every expression evaluates into (no float is ever boxed), the trace
   sink and the flop counter. *)
type ctx = {
  env : env;
  store : Store.t;
  sink : Trace.sink;
  flops : int ref;
  regs : float array;
}

(* [compile_fexpr cx r e] evaluates [e] into [cx.regs.(r)], using the
   registers above [r] for subterms. *)
let rec compile_fexpr cx r (e : Fexpr.t) : int array -> unit =
  let regs = cx.regs and flops = cx.flops in
  match e with
  | Fexpr.Ref rf ->
    let arr, off = compile_ref cx.env cx.store rf in
    let data = arr.Store.data and base = arr.Store.base in
    (* the sink is matched once, at compile time, so the no-trace fast
       path carries no per-access dispatch *)
    (match cx.sink with
     | Trace.No_trace -> fun frame -> regs.(r) <- data.(off frame)
     | Trace.Callback t ->
       fun frame ->
         let o = off frame in
         t ~write:false ~addr:(base + o);
         regs.(r) <- data.(o)
     | Trace.Record rc ->
       fun frame ->
         let o = off frame in
         Trace.emit rc ~write:false ~addr:(base + o);
         regs.(r) <- data.(o))
  | Fexpr.Const x -> fun _ -> regs.(r) <- x
  | Fexpr.Neg a ->
    let ca = compile_fexpr cx r a in
    fun f ->
      incr flops;
      ca f;
      regs.(r) <- -.regs.(r)
  | Fexpr.Sqrt a ->
    let ca = compile_fexpr cx r a in
    fun f ->
      incr flops;
      ca f;
      regs.(r) <- sqrt regs.(r)
  | Fexpr.Bin (op, a, b) ->
    (* left operand first, so the memory trace reads operands in textual
       order *)
    let s = r + 1 in
    let ca = compile_fexpr cx r a and cb = compile_fexpr cx s b in
    (match op with
     | Fexpr.Fadd ->
       fun f ->
         incr flops;
         ca f;
         cb f;
         regs.(r) <- regs.(r) +. regs.(s)
     | Fexpr.Fsub ->
       fun f ->
         incr flops;
         ca f;
         cb f;
         regs.(r) <- regs.(r) -. regs.(s)
     | Fexpr.Fmul ->
       fun f ->
         incr flops;
         ca f;
         cb f;
         regs.(r) <- regs.(r) *. regs.(s)
     | Fexpr.Fdiv ->
       fun f ->
         incr flops;
         ca f;
         cb f;
         regs.(r) <- regs.(r) /. regs.(s))

let compile_guard env (g : Ast.guard) =
  let cl = compile_iexpr env g.g_lhs and cr = compile_iexpr env g.g_rhs in
  match g.g_rel with
  | Ast.Le -> fun f -> cl f <= cr f
  | Ast.Lt -> fun f -> cl f < cr f
  | Ast.Ge -> fun f -> cl f >= cr f
  | Ast.Gt -> fun f -> cl f > cr f
  | Ast.Eq -> fun f -> cl f = cr f

(* A conjunction of guards as one closure, tested left to right. *)
let rec compile_guards env = function
  | [] -> fun _ -> true
  | [ g ] -> compile_guard env g
  | g :: rest ->
    let cg = compile_guard env g and crest = compile_guards env rest in
    fun f -> cg f && crest f

let rec compile_node cx (node : Ast.t) : int array -> unit =
  match node with
  | Ast.Stmt s ->
    let rhs = compile_fexpr cx 0 s.rhs in
    let arr, lhs = compile_ref cx.env cx.store s.lhs in
    let data = arr.Store.data and base = arr.Store.base and regs = cx.regs in
    (match cx.sink with
     | Trace.No_trace ->
       fun frame ->
         rhs frame;
         data.(lhs frame) <- regs.(0)
     | Trace.Callback t ->
       fun frame ->
         rhs frame;
         let o = lhs frame in
         t ~write:true ~addr:(base + o);
         data.(o) <- regs.(0)
     | Trace.Record rc ->
       fun frame ->
         rhs frame;
         let o = lhs frame in
         Trace.emit rc ~write:true ~addr:(base + o);
         data.(o) <- regs.(0))
  | Ast.If (gs, body) ->
    let guard = compile_guards cx.env gs in
    let cbody = compile_body cx body in
    fun frame -> if guard frame then cbody frame
  | Ast.Loop l ->
    let lo = compile_iexpr cx.env l.lo and hi = compile_iexpr cx.env l.hi in
    let sl = slot cx.env l.var in
    let cbody = compile_body cx l.body in
    fun frame ->
      let a = lo frame and b = hi frame in
      for v = a to b do
        frame.(sl) <- v;
        cbody frame
      done

and compile_body cx body =
  match Array.of_list (List.map (compile_node cx) body) with
  | [| c |] -> c
  | cs ->
    fun frame ->
      for i = 0 to Array.length cs - 1 do
        cs.(i) frame
      done

type prepared = {
  p_env : env;
  p_main : int array -> unit;
  p_frame : int array;
  p_flops : int ref;
}

let prepare ?(sink = Trace.No_trace) store (prog : Ast.program) =
  let env = { slots = Hashtbl.create 16; count = 0 } in
  let cx =
    { env;
      store;
      sink;
      flops = ref 0;
      regs = Array.make (List.fold_left stmt_regs 1 prog.body) 0.0 }
  in
  (* reserve slots for params first *)
  List.iter (fun p -> ignore (slot env p)) prog.params;
  let main = compile_body cx prog.body in
  (* env.count is final once compile_body returns: one slot per distinct
     name, no more *)
  let frame = Array.make env.count 0 in
  { p_env = env; p_main = main; p_frame = frame; p_flops = cx.flops }

let invoke p ~params =
  List.iter
    (fun (name, value) ->
      match Hashtbl.find_opt p.p_env.slots name with
      | Some i -> p.p_frame.(i) <- value
      | None ->
        invalid_arg
          (Printf.sprintf "Exec.Interp.invoke: unknown parameter %s" name))
    params;
  let before = !(p.p_flops) in
  p.p_main p.p_frame;
  !(p.p_flops) - before

let run ?sink store (prog : Ast.program) ~params =
  invoke (prepare ?sink store prog) ~params
