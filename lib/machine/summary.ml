(* Block-cost summarization over a recorded execution tape.  The replay
   arithmetic here mirrors Cpu.run op for op — same block-local
   accumulation, same commit points — which is what keeps replayed stats
   bit-identical to the cycle-accurate simulator (see summary.mli). *)

open Dvs_ir

type block_summary = {
  bs_dtime : float;
  bs_denergy : float;
  bs_dependent : int;
  bs_cache_hit : int;
}

(* Full replay-engine state "before position p".  [dtime]/[denergy] are
   always 0.0 at block boundaries, so checkpoints never need them.  The
   floats live in their own all-float record, stored flat: updating one
   writes it in place, where a float field of the mixed record would
   allocate a box per update. *)
type fstate = {
  mutable time : float;
  mutable energy : float;
  mutable dtime : float;
  mutable denergy : float;
  mutable voltage : float;
  mutable freq : float;
  mutable t_time : float;
  mutable t_energy : float;
  mutable busy_end : float;
  mutable miss_busy : float;
  mutable stall : float;
}

type state = {
  f : fstate;
  mutable mode : int;
  mutable dyn : int;
  mutable transitions : int;
  mutable overlap : int;
  mutable dependent : int;
  mutable cache_hit : int;
  pending : float array;
  (* replay-tier accounting (volatile counters) *)
  mutable blocks : int;
  mutable hits : int;
  mutable misses : int;
}

let copy_state st =
  { st with f = { st.f with time = st.f.time };
            pending = Array.copy st.pending }

type baseline = {
  b_entry : int;
  b_edge : int option array;
  b_cks : (int * state) array;  (* ascending position; states immutable *)
  b_stats : Cpu.run_stats;
}

type t = {
  config : Config.t;
  static_blocks : int;
  tape : Tape.t;
  n_modes : int;
  summaries : block_summary option Atomic.t array array;  (* [variant][mode] *)
  next_token : int Atomic.t;
  lock : Mutex.t;
  mutable baselines : (int * baseline) list;  (* MRU first *)
}

let max_baselines = 8

let create ?fuel ?(obs = Dvs_obs.disabled) (config : Config.t) cfg ~memory =
  let recorder = Tape.recorder cfg in
  let rc = Cpu.Run_config.make ?fuel ~obs ~recorder () in
  let stats = Cpu.run ~rc config cfg ~memory in
  let tape =
    Tape.create recorder ~dyn_instrs:stats.Cpu.dyn_instrs ~l1:stats.Cpu.l1
      ~l2:stats.Cpu.l2 ~registers:stats.Cpu.registers
      ~memory:stats.Cpu.memory
  in
  let n_modes = Dvs_power.Mode.size config.mode_table in
  { config; static_blocks = Array.length (Cfg.blocks cfg); tape; n_modes;
    summaries =
      Array.init
        (Array.length tape.Tape.variants)
        (fun _ -> Array.init n_modes (fun _ -> Atomic.make None));
    next_token = Atomic.make 1; lock = Mutex.create (); baselines = [] }

let tape t = t.tape

let n_edges t = t.tape.Tape.n_edges

let positions t = Tape.positions t.tape

type result = { stats : Cpu.run_stats; token : int }

let init_state t ~entry_mode =
  if entry_mode < 0 || entry_mode >= t.n_modes then
    invalid_arg "Summary.replay: entry mode out of range";
  let m = Dvs_power.Mode.get t.config.Config.mode_table entry_mode in
  { f =
      { time = 0.0; energy = 0.0; dtime = 0.0; denergy = 0.0;
        voltage = m.voltage; freq = m.frequency; t_time = 0.0;
        t_energy = 0.0; busy_end = neg_infinity; miss_busy = 0.0;
        stall = 0.0 };
    mode = entry_mode; dyn = 0; transitions = 0; overlap = 0; dependent = 0;
    cache_hit = 0; pending = Array.make t.tape.Tape.n_regs neg_infinity;
    blocks = 0; hits = 0; misses = 0 }

let check_edge_mode t edge_mode =
  if Array.length edge_mode <> t.tape.Tape.n_edges then
    invalid_arg "Summary.replay: edge_mode length does not match CFG edges"

let stride t = Int.max 64 (Tape.positions t.tape / 256)

(* Per-block cost attribution for {!replay_pinned}: each dynamic
   block's label gets the time and energy from its entry (after any edge
   mode-set) to the next block's entry, the last block also the final
   drain — the grouping of the observer-based profiler this replaces. *)
type attribution = { a_time : float array; a_energy : float array }

(* Replay tape positions [from_pos, len), mutating [st], collecting
   checkpoints (newest first) at every [stride] position ([0]: none),
   and draining outstanding memory traffic at the end of the tape.  The
   per-position path allocates nothing: helpers take and return ints
   only, and every float lives in [st.f], [st.pending] or an unboxed
   local. *)
let exec_range t obs st ~edge_mode ~from_pos ~stride ~attrib =
  let cfg = t.config in
  let table = cfg.Config.mode_table in
  let tape = t.tape in
  let fs = st.f in
  let tr = Dvs_obs.trace obs in
  let obs_on = Dvs_obs.enabled obs in
  let module Tr = Dvs_obs.Trace in
  let commit () =
    if fs.dtime <> 0.0 then begin
      fs.time <- fs.time +. fs.dtime;
      fs.dtime <- 0.0
    end;
    if fs.denergy <> 0.0 then begin
      fs.energy <- fs.energy +. fs.denergy;
      fs.denergy <- 0.0
    end
  in
  (* [rd = -1] for a store miss (see Cpu.run's issue_miss). *)
  let issue_miss rd =
    let anow = fs.time +. fs.dtime in
    let completion = anow +. cfg.Config.dram_latency in
    if anow >= fs.busy_end then begin
      fs.miss_busy <- fs.miss_busy +. cfg.Config.dram_latency;
      if obs_on then
        Tr.event tr ~stability:Tr.Stable "sim.miss_window"
          ~attrs:[ ("t", Tr.Float anow) ]
    end
    else if completion > fs.busy_end then
      fs.miss_busy <- fs.miss_busy +. (completion -. fs.busy_end);
    if completion > fs.busy_end then fs.busy_end <- completion;
    if rd >= 0 then st.pending.(rd) <- completion
  in
  let set_mode m =
    if m < 0 || m >= t.n_modes then
      invalid_arg "Summary.replay: mode out of range";
    if m <> st.mode then begin
      commit ();
      let cur = Dvs_power.Mode.get table st.mode in
      let nxt = Dvs_power.Mode.get table m in
      let dt =
        Dvs_power.Switch_cost.time cfg.Config.regulator cur.voltage
          nxt.voltage
      in
      let de =
        Dvs_power.Switch_cost.energy cfg.Config.regulator cur.voltage
          nxt.voltage
      in
      fs.time <- fs.time +. dt;
      fs.energy <- fs.energy +. de;
      fs.t_time <- fs.t_time +. dt;
      fs.t_energy <- fs.t_energy +. de;
      st.transitions <- st.transitions + 1;
      if obs_on then
        Tr.event tr ~stability:Tr.Stable "sim.mode_transition"
          ~attrs:
            [ ("from", Tr.Int st.mode); ("to", Tr.Int m);
              ("t", Tr.Float fs.time) ];
      st.mode <- m;
      fs.voltage <- nxt.voltage;
      fs.freq <- nxt.frequency
    end
  in
  (* The block-local accumulators live in local refs for the length of
     the op loop, which the compiler keeps unboxed in registers rather
     than storing to [fs] on every op; they are written back before any
     helper that reads or commits them, and reloaded after it. *)
  let replay_ops (v : Tape.variant) =
    let ops = v.Tape.ops in
    let dtime = ref fs.dtime and denergy = ref fs.denergy in
    for i = 0 to Array.length ops - 1 do
      let op = ops.(i) in
      let tag = op land 7 and pl = op lsr 3 in
      if tag = Tape.tag_compute || tag = Tape.tag_hit then begin
        if tag = Tape.tag_hit then st.cache_hit <- st.cache_hit + pl
        else if fs.busy_end > fs.time +. !dtime then
          st.overlap <- st.overlap + pl
        else st.dependent <- st.dependent + pl;
        (* Cpu.run's [charge]. *)
        dtime := !dtime +. (float_of_int pl /. fs.freq);
        denergy :=
          !denergy
          +. (float_of_int pl *. cfg.Config.active_energy_coeff *. fs.voltage
             *. fs.voltage)
      end
      else if tag = Tape.tag_wait then begin
        if st.pending.(pl) > fs.time +. !dtime then begin
          fs.dtime <- !dtime;
          fs.denergy <- !denergy;
          commit ();
          fs.stall <- fs.stall +. (st.pending.(pl) -. fs.time);
          fs.time <- st.pending.(pl);
          dtime := fs.dtime;
          denergy := fs.denergy
        end
      end
      else if tag = Tape.tag_clear then st.pending.(pl) <- neg_infinity
      else begin
        fs.dtime <- !dtime;
        fs.denergy <- !denergy;
        if tag = Tape.tag_miss_load then issue_miss pl
        else if tag = Tape.tag_miss_store then issue_miss (-1)
        else set_mode pl;
        dtime := fs.dtime;
        denergy := fs.denergy
      end
    done;
    fs.dtime <- !dtime;
    fs.denergy <- !denergy
  in
  let replay_block vid =
    st.blocks <- st.blocks + 1;
    let v = t.tape.Tape.variants.(vid) in
    st.dyn <- st.dyn + v.Tape.dyn;
    (* Fast path: no miss/modeset op in the variant and no miss in
       flight at entry means no stall, no busy_end change, all compute
       cycles dependent — the whole block is one (variant, mode) delta.
       Replaying it once proves the delta; after that it is one add. *)
    if v.Tape.summarizable && fs.busy_end <= fs.time then begin
      let slot = t.summaries.(vid).(st.mode) in
      match Atomic.get slot with
      | Some bs ->
        st.hits <- st.hits + 1;
        st.dependent <- st.dependent + bs.bs_dependent;
        st.cache_hit <- st.cache_hit + bs.bs_cache_hit;
        if bs.bs_dtime <> 0.0 then fs.time <- fs.time +. bs.bs_dtime;
        if bs.bs_denergy <> 0.0 then fs.energy <- fs.energy +. bs.bs_denergy
      | None ->
        st.misses <- st.misses + 1;
        let dep0 = st.dependent and hit0 = st.cache_hit in
        replay_ops v;
        (* No stall or mode-set was possible, so dtime/denergy hold the
           whole block's delta, uncommitted. *)
        Atomic.set slot
          (Some
             { bs_dtime = fs.dtime; bs_denergy = fs.denergy;
               bs_dependent = st.dependent - dep0;
               bs_cache_hit = st.cache_hit - hit0 });
        commit ()
    end
    else begin
      st.misses <- st.misses + 1;
      replay_ops v;
      commit ()
    end
  in
  (* Attribution cursor: the block being charged and its entry time and
     energy (a float array, so updates stay unboxed). *)
  let prev = ref (-1) in
  let mark = [| 0.0; 0.0 |] in
  let attribute (a : attribution) =
    let j = !prev in
    if j >= 0 then begin
      a.a_time.(j) <- a.a_time.(j) +. (fs.time -. mark.(0));
      a.a_energy.(j) <- a.a_energy.(j) +. (fs.energy -. mark.(1))
    end
  in
  let len = Tape.positions tape in
  let cks = ref [] in
  for p = from_pos to len - 1 do
    if stride > 0 && p mod stride = 0 then
      cks := (p, copy_state st) :: !cks;
    let e = tape.Tape.edge_of.(p) in
    if e >= 0 then (
      (* A silent mode-set (the mode already holds) costs nothing. *)
      match edge_mode.(e) with
      | Some m when m <> st.mode -> set_mode m
      | Some _ | None -> ());
    let vid = tape.Tape.seq.(p) in
    (match attrib with
    | Some a ->
      attribute a;
      prev := tape.Tape.variants.(vid).Tape.label;
      mark.(0) <- fs.time;
      mark.(1) <- fs.energy
    | None -> ());
    replay_block vid
  done;
  (* Drain outstanding memory traffic (mirrors Cpu.run at Halt). *)
  if fs.busy_end > fs.time then begin
    fs.stall <- fs.stall +. (fs.busy_end -. fs.time);
    fs.time <- fs.busy_end
  end;
  (match attrib with Some a -> attribute a | None -> ());
  !cks

let stats_of t st =
  let fs = st.f in
  { Cpu.time = fs.time; energy = fs.energy; dyn_instrs = st.dyn;
    mode_transitions = st.transitions; transition_time = fs.t_time;
    transition_energy = fs.t_energy; l1 = t.tape.Tape.l1;
    l2 = t.tape.Tape.l2; overlap_cycles = st.overlap;
    dependent_cycles = st.dependent; cache_hit_cycles = st.cache_hit;
    miss_busy_time = fs.miss_busy; stall_time = fs.stall;
    registers = Array.copy t.tape.Tape.registers;
    memory = Array.copy t.tape.Tape.memory }

let publish_stats (s : Cpu.run_stats) =
  { s with
    Cpu.registers = Array.copy s.Cpu.registers;
    memory = Array.copy s.Cpu.memory }

(* Emit the same stable instruments as a cycle-accurate Cpu.run of this
   schedule would (totals are as-if-full-run even after a splice,
   because checkpoints carry the counter state), plus the volatile
   replay-tier counters. *)
let emit_obs obs run_span ~(stats : Cpu.run_stats) ~blocks ~hits ~misses
    ~spliced =
  if Dvs_obs.enabled obs then begin
    let tr = Dvs_obs.trace obs in
    let module Tr = Dvs_obs.Trace in
    let mxr = Dvs_obs.metrics obs in
    let module Mc = Dvs_obs.Metrics.Counter in
    let c stability name =
      Dvs_obs.Metrics.counter mxr ~stability name
    in
    let stable = Dvs_obs.Metrics.Stable
    and volatile = Dvs_obs.Metrics.Volatile in
    Mc.add (c stable "sim.cycles.overlap") ~slot:0 stats.Cpu.overlap_cycles;
    Mc.add (c stable "sim.cycles.dependent") ~slot:0
      stats.Cpu.dependent_cycles;
    Mc.add (c stable "sim.cycles.cache_hit") ~slot:0
      stats.Cpu.cache_hit_cycles;
    Mc.add (c stable "sim.mode_transitions") ~slot:0
      stats.Cpu.mode_transitions;
    Mc.add (c stable "sim.dyn_instrs") ~slot:0 stats.Cpu.dyn_instrs;
    Mc.add (c volatile "sim.blocks_replayed") ~slot:0 blocks;
    Mc.add (c volatile "sim.summary_hits") ~slot:0 hits;
    Mc.add (c volatile "sim.summary_misses") ~slot:0 misses;
    Mc.add (c volatile "sim.spliced_segments") ~slot:0 spliced;
    let g name v =
      Dvs_obs.Metrics.Gauge.set
        (Dvs_obs.Metrics.gauge mxr ~stability:stable name)
        v
    in
    g "sim.time_seconds" stats.Cpu.time;
    g "sim.energy_joules" stats.Cpu.energy;
    g "sim.stall_seconds" stats.Cpu.stall_time;
    g "sim.miss_busy_seconds" stats.Cpu.miss_busy_time;
    Tr.finish tr run_span
      ~attrs:
        [ ("time", Tr.Float stats.Cpu.time);
          ("energy", Tr.Float stats.Cpu.energy);
          ("dyn_instrs", Tr.Int stats.Cpu.dyn_instrs);
          ("mode_transitions", Tr.Int stats.Cpu.mode_transitions) ]
  end

let start_span obs t =
  let module Tr = Dvs_obs.Trace in
  if Dvs_obs.enabled obs then
    Tr.start (Dvs_obs.trace obs) ~stability:Tr.Stable "sim.run"
      ~attrs:[ ("blocks", Tr.Int t.static_blocks) ]
  else Tr.start Tr.disabled "sim.run"

let store_baseline t token b =
  Mutex.lock t.lock;
  let keep = List.filteri (fun i _ -> i < max_baselines - 1) t.baselines in
  t.baselines <- (token, b) :: keep;
  Mutex.unlock t.lock

let find_baseline t token =
  Mutex.lock t.lock;
  let r = List.assoc_opt token t.baselines in
  (match r with
  | Some b ->
    t.baselines <- (token, b) :: List.remove_assoc token t.baselines
  | None -> ());
  Mutex.unlock t.lock;
  r

let fresh_token t = Atomic.fetch_and_add t.next_token 1

let replay ?(obs = Dvs_obs.disabled) t ~entry_mode ~edge_mode =
  check_edge_mode t edge_mode;
  let run_span = start_span obs t in
  let st = init_state t ~entry_mode in
  let cks =
    exec_range t obs st ~edge_mode ~from_pos:0 ~stride:(stride t)
      ~attrib:None
  in
  let stats = stats_of t st in
  let token = fresh_token t in
  store_baseline t token
    { b_entry = entry_mode; b_edge = Array.copy edge_mode;
      b_cks = Array.of_list (List.rev cks); b_stats = stats };
  emit_obs obs run_span ~stats ~blocks:st.blocks ~hits:st.hits
    ~misses:st.misses ~spliced:0;
  { stats = publish_stats stats; token }

let replay_incremental ?(obs = Dvs_obs.disabled) t ~against ~entry_mode
    ~edge_mode =
  check_edge_mode t edge_mode;
  match find_baseline t against with
  | None -> replay ~obs t ~entry_mode ~edge_mode
  | Some b ->
    let entry_changed = entry_mode <> b.b_entry in
    let edges = ref [] in
    Array.iteri
      (fun i m -> if m <> b.b_edge.(i) then edges := i :: !edges)
      edge_mode;
    (match Tape.first_divergence t.tape ~entry_changed ~edges:!edges with
    | None ->
      (* No traversed edge differs: this schedule costs exactly what the
         baseline did.  Re-register it under a fresh token so further
         increments can chain. *)
      let run_span = start_span obs t in
      let stats = b.b_stats in
      let token = fresh_token t in
      store_baseline t token
        { b with b_entry = entry_mode; b_edge = Array.copy edge_mode };
      emit_obs obs run_span ~stats ~blocks:0 ~hits:0 ~misses:0 ~spliced:1;
      { stats = publish_stats stats; token }
    | Some p_div ->
      (* Latest checkpoint at or before the first position that could
         diverge; everything before it is shared verbatim. *)
      let ck_idx = ref (-1) in
      Array.iteri
        (fun i (pos, _) -> if pos <= p_div then ck_idx := i)
        b.b_cks;
      let run_span = start_span obs t in
      let from_pos, st =
        if !ck_idx < 0 then (0, init_state t ~entry_mode)
        else begin
          let pos, ck = b.b_cks.(!ck_idx) in
          (pos, copy_state ck)
        end
      in
      (* An entry-mode change always diverges at position 0, where the
         restored state is the initial state — reinitialize to pick the
         new entry mode up. *)
      let st = if from_pos = 0 then init_state t ~entry_mode else st in
      let spliced = if from_pos > 0 then 1 else 0 in
      let suffix =
        exec_range t obs st ~edge_mode ~from_pos ~stride:(stride t)
          ~attrib:None
      in
      let stats = stats_of t st in
      let prefix =
        List.filter (fun (pos, _) -> pos < from_pos)
          (Array.to_list b.b_cks)
      in
      let token = fresh_token t in
      store_baseline t token
        { b_entry = entry_mode; b_edge = Array.copy edge_mode;
          b_cks = Array.of_list (prefix @ List.rev suffix);
          b_stats = stats };
      emit_obs obs run_span ~stats ~blocks:st.blocks ~hits:st.hits
        ~misses:st.misses ~spliced;
      { stats = publish_stats stats; token })

let replay_pinned t ~mode ~time ~energy =
  let blocks = Array.length time in
  if blocks <> t.static_blocks || Array.length energy <> blocks then
    invalid_arg "Summary.replay_pinned: arrays must have one slot per block";
  let st = init_state t ~entry_mode:mode in
  ignore
    (exec_range t Dvs_obs.disabled st
       ~edge_mode:(Array.make t.tape.Tape.n_edges None)
       ~from_pos:0 ~stride:0
       ~attrib:(Some { a_time = time; a_energy = energy }));
  stats_of t st
