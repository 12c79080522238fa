type level_spec = {
  l_name : string;
  l_cache : Cache.config;
  l_hit_cycles : float;
}

type t = {
  m_name : string;
  levels : level_spec list;
  mem_cycles : float;
  flop_cycles : float;
  clock_mhz : float;
  elem_bytes : int;
}

type quality = {
  q_name : string;
  overhead : float;
  forwarding : bool;
}

let sp2_like =
  { m_name = "sp2-like";
    levels =
      [ { l_name = "L1";
          l_cache = { Cache.size_bytes = 64 * 1024; line_bytes = 128; assoc = 4 };
          l_hit_cycles = 1.0 } ];
    mem_cycles = 50.0;
    flop_cycles = 0.5;
    clock_mhz = 66.0;
    elem_bytes = 8 }

(* Geometry scaled down so the locality effects show at simulation-friendly
   problem sizes; the L1:L2:memory cost ratios are what matter. *)
let two_level =
  { m_name = "two-level";
    levels =
      [ { l_name = "L1";
          l_cache = { Cache.size_bytes = 16 * 1024; line_bytes = 128; assoc = 4 };
          l_hit_cycles = 1.0 };
        { l_name = "L2";
          l_cache =
            { Cache.size_bytes = 256 * 1024; line_bytes = 128; assoc = 8 };
          l_hit_cycles = 8.0 } ];
    mem_cycles = 60.0;
    flop_cycles = 0.5;
    clock_mhz = 66.0;
    elem_bytes = 8 }

(* A deliberately small, fully-associative cache (128 single-element
   lines) with sp2-like cost ratios: capacity effects — and with them the
   analytic windowed lower bound — show up at problem sizes small enough
   for quick simulation and CI.  The geometry is chosen to match the
   ideal cache the {!Bounds} analysis models: full associativity (no set
   conflicts inflating simulated misses above any capacity argument) and
   one element per line (no spatial-locality slack between the
   line-granular simulator and the element-granular data-volume
   argument).  On this machine the bounds are tight enough that
   lower-bound pruning actually fires. *)
let small_cache =
  { m_name = "small-cache";
    levels =
      [ { l_name = "L1";
          l_cache = { Cache.size_bytes = 1024; line_bytes = 8; assoc = 128 };
          l_hit_cycles = 1.0 } ];
    mem_cycles = 50.0;
    flop_cycles = 0.5;
    clock_mhz = 66.0;
    elem_bytes = 8 }

let untuned = { q_name = "untuned"; overhead = 2.0; forwarding = false }
let tuned = { q_name = "tuned"; overhead = 0.25; forwarding = true }

type level_stat = {
  s_name : string;
  s_accesses : int;
  s_hits : int;
  s_misses : int;
  s_evictions : int;
}

type result = {
  r_flops : int;
  r_instances : int;
  r_accesses : int;
  r_levels : level_stat list;
  r_cycles : float;
  r_mflops : float;
}

(* An explicit simulator instance: the cache hierarchy plus the trace
   counters for one simulation.  Instances share nothing, so a work pool
   fanning simulation points across domains simply creates one per task;
   nothing in this module is global.

   Cache levels live in flat arrays (fastest first) and the per-access
   work is pure counter updates: cycle costs are folded in once, in
   closed form, when the result is built.  Every cost constant is an
   integer or dyadic rational and every counter stays far below 2^53, so
   the closed form is bit-identical to the old per-access float
   accumulation. *)
module Sim = struct
  type sim = {
    machine : t;
    quality : quality;
    names : string array;
    caches : Cache.t array;
    hit_cycles : float array;
    mutable accesses : int;
    mutable instances : int;
    mutable last_addr : int;
  }

  let create ~machine ~quality =
    let levels = Array.of_list machine.levels in
    { machine;
      quality;
      names = Array.map (fun l -> l.l_name) levels;
      caches = Array.map (fun l -> Cache.create l.l_cache) levels;
      hit_cycles = Array.map (fun l -> l.l_hit_cycles) levels;
      accesses = 0;
      instances = 0;
      last_addr = min_int }

  let reset sim =
    Array.iter Cache.reset sim.caches;
    sim.accesses <- 0;
    sim.instances <- 0;
    sim.last_addr <- min_int

  (* Level i+1 is probed only when level i misses. *)
  let rec probe caches i byte =
    if i < Array.length caches
       && not (Cache.access (Array.unsafe_get caches i) byte)
    then probe caches (i + 1) byte

  (* One access through the hierarchy.  [forwarding] quality drops
     back-to-back accesses to the same element before they reach the
     hierarchy. *)
  let access sim ~write ~addr =
    if write then sim.instances <- sim.instances + 1;
    if sim.quality.forwarding && addr = sim.last_addr then ()
    else begin
      sim.accesses <- sim.accesses + 1;
      sim.last_addr <- addr;
      probe sim.caches 0 (addr * sim.machine.elem_bytes)
    end

  (* Replay one recorded chunk: the tight loop of the trace pipeline. *)
  let consume_chunk sim buf len =
    for i = 0 to len - 1 do
      let w = Array.unsafe_get buf i in
      access sim ~write:(w land 1 = 1) ~addr:(w asr 1)
    done

  let consumer sim : Trace.consumer = consume_chunk sim

  (* Accesses that missed every level and went to memory. *)
  let mem_misses sim =
    let n = Array.length sim.caches in
    if n = 0 then sim.accesses else Cache.misses sim.caches.(n - 1)

  (* Closed-form cycle accounting from the counters:
       cycles = flops * flop_cycles
              + sum_level hits(level) * hit_cycles(level)
              + memory misses * mem_cycles
              + instances * overhead *)
  let result sim ~flops =
    let hier = ref 0.0 in
    Array.iteri
      (fun i c ->
        hier := !hier +. (float_of_int (Cache.hits c) *. sim.hit_cycles.(i)))
      sim.caches;
    let hier =
      !hier +. (float_of_int (mem_misses sim) *. sim.machine.mem_cycles)
    in
    let cycles =
      (float_of_int flops *. sim.machine.flop_cycles)
      +. hier
      +. (sim.quality.overhead *. float_of_int sim.instances)
    in
    let seconds = cycles /. (sim.machine.clock_mhz *. 1e6) in
    { r_flops = flops;
      r_instances = sim.instances;
      r_accesses = sim.accesses;
      r_levels =
        Array.to_list
          (Array.mapi
             (fun i c ->
               { s_name = sim.names.(i);
                 s_accesses = Cache.accesses c;
                 s_hits = Cache.hits c;
                 s_misses = Cache.misses c;
                 s_evictions = Cache.evictions c })
             sim.caches);
      r_cycles = cycles;
      r_mflops =
        (if cycles = 0.0 then 0.0 else float_of_int flops /. 1e6 /. seconds) }

  (* The legacy direct path: execute the interpreter and feed every access
     straight into this instance.  Kept alive behind [Trace.Callback] as
     the differential baseline for the record/replay pipeline. *)
  let run sim ?layouts prog ~params ~init =
    reset sim;
    let _, flops =
      Exec.Verify.run_program ?layouts
        ~sink:(Trace.Callback (fun ~write ~addr -> access sim ~write ~addr))
        prog ~params ~init
    in
    result sim ~flops
end

(* ------------------------------------------------------------------ *)
(* Record once, replay many                                            *)
(* ------------------------------------------------------------------ *)

(* The access stream of one interpreter execution.  Machine and quality
   play no part in recording (forwarding dedup happens at replay), so a
   single recording serves every (machine x quality) series of a figure
   point. *)
type recording = { rec_trace : Trace.t; rec_flops : int }

let record ?layouts ?chunk_words prog ~params ~init =
  let r = Trace.create_recorder ?chunk_words ~keep:true () in
  let _, flops =
    Exec.Verify.run_program ?layouts ~sink:(Trace.Record r) prog ~params ~init
  in
  { rec_trace = Trace.finish r; rec_flops = flops }

let consume ~machine ~quality recording =
  let sim = Sim.create ~machine ~quality in
  Trace.iter_chunks recording.rec_trace (Sim.consume_chunk sim);
  Sim.result sim ~flops:recording.rec_flops

(* The streaming tee: one execution drives every variant with O(chunk)
   memory, never storing the trace.  For unbounded problem sizes. *)
let stream ?layouts ?chunk_words prog ~params ~init variants =
  let sims =
    List.map (fun (machine, quality) -> Sim.create ~machine ~quality) variants
  in
  let r =
    Trace.create_recorder ?chunk_words ~keep:false
      ~consumers:(List.map Sim.consumer sims) ()
  in
  let _, flops =
    Exec.Verify.run_program ?layouts ~sink:(Trace.Record r) prog ~params ~init
  in
  ignore (Trace.finish r : Trace.t);
  List.map (fun sim -> Sim.result sim ~flops) sims

(* ------------------------------------------------------------------ *)
(* Shared-L2 SMP replay                                                 *)
(* ------------------------------------------------------------------ *)

(* A P-core machine built from a uniprocessor spec: every core gets a
   private copy of the first cache level, the remaining levels (and
   memory) are shared.  Replay consumes the per-task traces of a
   scheduled parallel execution: within each wavefront group, tasks are
   assigned to virtual cores round-robin in task order and the per-core
   streams are interleaved in fixed quanta, core 0 first.  Everything —
   assignment, interleave, counters, closed-form cycles — is a pure
   function of (traces, groups, cores), so the result is byte-identical
   no matter how many domains actually executed the blocks.  [cores] is
   a machine parameter, deliberately distinct from [--domains]. *)
module Smp = struct
  type smp_result = {
    p_cores : int;
    p_flops : int;
    p_accesses : int;
    p_instances : int;
    p_private : level_stat list;  (** first level, summed over cores *)
    p_shared : level_stat list;  (** the shared levels *)
    p_core_cycles : float list;
    p_cycles : float;  (** makespan: the slowest core *)
    p_mflops : float;
  }

  let quantum_words = 64

  type cursor = { mutable chunks : (int array * int) list; mutable pos : int }

  (* An L1 miss of [core] walks the shared levels: the first hit is counted
     in [hits], a miss everywhere in [mem_misses]. *)
  let rec probe_shared shared hits mem_misses core i byte =
    if i >= Array.length shared then
      mem_misses.(core) <- mem_misses.(core) + 1
    else if Cache.access shared.(i) byte then hits.(i) <- hits.(i) + 1
    else probe_shared shared hits mem_misses core (i + 1) byte

  let consume ~machine ~quality ~cores ~groups ~parts ~task_flops =
    if cores <= 0 then invalid_arg "Smp.consume: cores";
    let private_spec, shared_specs =
      match machine.levels with
      | [] -> invalid_arg "Smp.consume: machine has no cache levels"
      | l :: rest -> (l, Array.of_list rest)
    in
    let l1 = Array.init cores (fun _ -> Cache.create private_spec.l_cache) in
    let shared = Array.map (fun l -> Cache.create l.l_cache) shared_specs in
    let nshared = Array.length shared in
    let accesses = Array.make cores 0 in
    let instances = Array.make cores 0 in
    let last_addr = Array.make cores min_int in
    let shared_hits = Array.make_matrix cores nshared 0 in
    let mem_misses = Array.make cores 0 in
    let flops = Array.make cores 0 in
    let access core ~write ~addr =
      if write then instances.(core) <- instances.(core) + 1;
      if quality.forwarding && addr = last_addr.(core) then ()
      else begin
        accesses.(core) <- accesses.(core) + 1;
        last_addr.(core) <- addr;
        let byte = addr * machine.elem_bytes in
        if not (Cache.access l1.(core) byte) then
          probe_shared shared shared_hits.(core) mem_misses core 0 byte
      end
    in
    (* one wavefront group: round-robin the cores' streams in fixed quanta *)
    let consume_group tasks =
      let streams = Array.make cores [] in
      List.iteri
        (fun pos t ->
          let core = pos mod cores in
          streams.(core) <- t :: streams.(core);
          flops.(core) <- flops.(core) + task_flops.(t))
        tasks;
      let cursors =
        Array.map
          (fun ts ->
            let chunks =
              List.concat_map
                (fun t ->
                  let acc = ref [] in
                  Trace.iter_chunks parts.(t) (fun buf len ->
                      acc := (buf, len) :: !acc);
                  List.rev !acc)
                (List.rev ts)
            in
            { chunks; pos = 0 })
          streams
      in
      let live = ref true in
      while !live do
        live := false;
        for core = 0 to cores - 1 do
          let cur = cursors.(core) in
          let budget = ref quantum_words in
          let continue_ = ref true in
          while !continue_ && !budget > 0 do
            match cur.chunks with
            | [] -> continue_ := false
            | (buf, len) :: rest ->
              if cur.pos >= len then begin
                cur.chunks <- rest;
                cur.pos <- 0
              end
              else begin
                let w = Array.unsafe_get buf cur.pos in
                cur.pos <- cur.pos + 1;
                decr budget;
                access core ~write:(w land 1 = 1) ~addr:(w asr 1)
              end
          done;
          if cur.chunks <> [] then live := true
        done
      done
    in
    List.iter consume_group groups;
    let core_cycles =
      List.init cores (fun c ->
          let hier =
            ref (float_of_int (Cache.hits l1.(c)) *. private_spec.l_hit_cycles)
          in
          Array.iteri
            (fun i l ->
              hier :=
                !hier +. (float_of_int shared_hits.(c).(i) *. l.l_hit_cycles))
            shared_specs;
          (float_of_int flops.(c) *. machine.flop_cycles)
          +. !hier
          +. (float_of_int mem_misses.(c) *. machine.mem_cycles)
          +. (quality.overhead *. float_of_int instances.(c)))
    in
    let makespan = List.fold_left Float.max 0.0 core_cycles in
    let total_flops = Array.fold_left ( + ) 0 flops in
    let seconds = makespan /. (machine.clock_mhz *. 1e6) in
    let stat_of name c =
      { s_name = name;
        s_accesses = Cache.accesses c;
        s_hits = Cache.hits c;
        s_misses = Cache.misses c;
        s_evictions = Cache.evictions c }
    in
    let sum_l1 =
      Array.fold_left
        (fun acc c ->
          { acc with
            s_accesses = acc.s_accesses + Cache.accesses c;
            s_hits = acc.s_hits + Cache.hits c;
            s_misses = acc.s_misses + Cache.misses c;
            s_evictions = acc.s_evictions + Cache.evictions c })
        { s_name = private_spec.l_name;
          s_accesses = 0;
          s_hits = 0;
          s_misses = 0;
          s_evictions = 0 }
        l1
    in
    { p_cores = cores;
      p_flops = total_flops;
      p_accesses = Array.fold_left ( + ) 0 accesses;
      p_instances = Array.fold_left ( + ) 0 instances;
      p_private = [ sum_l1 ];
      p_shared =
        Array.to_list
          (Array.mapi (fun i c -> stat_of shared_specs.(i).l_name c) shared);
      p_core_cycles = core_cycles;
      p_cycles = makespan;
      p_mflops =
        (if makespan = 0.0 then 0.0
         else float_of_int total_flops /. 1e6 /. seconds) }

  let pp fmt r =
    Format.fprintf fmt
      "cores=%d flops=%d accesses=%d cycles=%.0f mflops=%.1f" r.p_cores
      r.p_flops r.p_accesses r.p_cycles r.p_mflops;
    List.iter
      (fun s ->
        Format.fprintf fmt " %s[acc=%d hit=%d miss=%d]" s.s_name s.s_accesses
          s.s_hits s.s_misses)
      (r.p_private @ r.p_shared)
end

type trace_mode = Callback | Replay

let trace_mode_string = function Callback -> "callback" | Replay -> "replay"

let simulate ?layouts ~machine ~quality prog ~params ~init =
  Sim.run (Sim.create ~machine ~quality) ?layouts prog ~params ~init

let pp_result fmt r =
  Format.fprintf fmt "flops=%d insts=%d accesses=%d cycles=%.0f mflops=%.1f"
    r.r_flops r.r_instances r.r_accesses r.r_cycles r.r_mflops;
  List.iter
    (fun s ->
      Format.fprintf fmt " %s[acc=%d hit=%d miss=%d evict=%d]" s.s_name
        s.s_accesses s.s_hits s.s_misses s.s_evictions)
    r.r_levels
