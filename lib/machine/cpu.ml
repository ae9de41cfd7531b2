open Dvs_ir

type run_stats = {
  time : float;
  energy : float;
  dyn_instrs : int;
  mode_transitions : int;
  transition_time : float;
  transition_energy : float;
  l1 : Cache.stats;
  l2 : Cache.stats;
  overlap_cycles : int;
  dependent_cycles : int;
  cache_hit_cycles : int;
  miss_busy_time : float;
  stall_time : float;
  registers : int array;
  memory : int array;
}

exception Out_of_fuel

type governor = {
  gov_interval : float;
  gov_decide : busy_fraction:float -> current_mode:int -> int;
}

type observer =
  Cfg.label -> via:Cfg.label option -> time:float -> energy:float -> unit

module Run_config = struct
  type t = {
    fuel : int;
    initial_mode : int option;
    edge_modes : (Cfg.edge -> int option) option;
    governor : governor option;
    observer : observer option;
    obs : Dvs_obs.t;
    recorder : Tape.recorder option;
  }

  let make ?(fuel = 50_000_000) ?initial_mode ?edge_modes ?governor
      ?observer ?(obs = Dvs_obs.disabled) ?recorder () =
    if fuel <= 0 then
      invalid_arg "Cpu.Run_config.make: fuel must be positive";
    { fuel; initial_mode; edge_modes; governor; observer; obs; recorder }

  let default = make ()
end

(* The run's float state.  An all-float record is stored flat, so
   updating a field writes the float in place; a [float ref] would
   allocate a fresh box on every charge. *)
type fstate = {
  mutable time : float;
  mutable energy : float;
  mutable dtime : float;  (* block-local, uncommitted *)
  mutable denergy : float;
  mutable voltage : float;
  mutable freq : float;
  mutable t_time : float;
  mutable t_energy : float;
  mutable busy_end : float;
  mutable miss_busy : float;
  mutable stall : float;
}

let max_reg_of_cfg g =
  Array.fold_left
    (fun acc b ->
      let acc =
        Array.fold_left (fun a i -> Int.max a (Instr.max_reg i)) acc b.Cfg.body
      in
      match b.Cfg.term with
      | Cfg.Branch (r, _, _) -> Int.max acc r
      | Cfg.Jump _ | Cfg.Halt -> acc)
    (-1) (Cfg.blocks g)

let run ?(rc = Run_config.default) (cfg : Config.t) g ~memory =
  let { Run_config.fuel; initial_mode; edge_modes; governor; observer; obs;
        recorder } =
    rc
  in
  (match (recorder, governor) with
  | Some _, Some _ ->
    (* A tape must stay schedule-independent; governor decisions are a
       runtime policy the replayer cannot reproduce. *)
    invalid_arg "Cpu.run: recorder and governor cannot be combined"
  | _ -> ());
  let table = cfg.mode_table in
  let n_modes = Dvs_power.Mode.size table in
  let initial_mode =
    match initial_mode with Some m -> m | None -> n_modes - 1
  in
  if initial_mode < 0 || initial_mode >= n_modes then
    invalid_arg "Cpu.run: initial mode out of range";
  let hier = Hierarchy.create cfg in
  (* Simulated time is deterministic (single-threaded, no wall clock), so
     every event the simulator emits is Stable. *)
  let tr = Dvs_obs.trace obs in
  let obs_on = Dvs_obs.enabled obs in
  let module Tr = Dvs_obs.Trace in
  let run_span =
    if obs_on then
      Tr.start tr ~stability:Tr.Stable "sim.run"
        ~attrs:[ ("blocks", Tr.Int (Array.length (Cfg.blocks g))) ]
    else Tr.start Tr.disabled "sim.run"
  in
  let regs = Array.make (max_reg_of_cfg g + 1) 0 in
  let mem = Array.copy memory in
  let pending = Array.make (Array.length regs) neg_infinity in
  (* Mutable machine state.  Time and energy are accumulated {e block
     locally} ([dtime]/[denergy], committed at block boundaries and at
     absolute events): summing each block's charges from 0.0 is what
     lets {!Summary} replay a memoized per-block delta bit-identically —
     float addition is not associative, so the exact path and the replay
     path must share one accumulation grouping.  The current time is
     [time + dtime], written out at each use: a helper returning it would
     box the float unless the compiler happens to inline it. *)
  let m0 = Dvs_power.Mode.get table initial_mode in
  let fs =
    { time = 0.0; energy = 0.0; dtime = 0.0; denergy = 0.0;
      voltage = m0.voltage; freq = m0.frequency; t_time = 0.0;
      t_energy = 0.0; busy_end = neg_infinity; miss_busy = 0.0;
      stall = 0.0 }
  in
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
  let mode = ref initial_mode in
  let dyn = ref 0 in
  let transitions = ref 0 in
  let overlap_cycles = ref 0 and dependent_cycles = ref 0 in
  let cache_hit_cycles = ref 0 in
  (* Charge [c] synchronous cycles of kind [`Compute] or [`Mem_hit]. *)
  let charge kind c =
    (match kind with
    | `Mem_hit ->
      cache_hit_cycles := !cache_hit_cycles + c;
      (match recorder with
      | Some r -> Tape.record r Tape.tag_hit c
      | None -> ())
    | `Compute ->
      if fs.busy_end > fs.time +. fs.dtime then
        overlap_cycles := !overlap_cycles + c
      else dependent_cycles := !dependent_cycles + c;
      (match recorder with
      | Some r -> Tape.record r Tape.tag_compute c
      | None -> ()));
    fs.dtime <- fs.dtime +. (float_of_int c /. fs.freq);
    fs.denergy <-
      fs.denergy
      +. (float_of_int c *. cfg.active_energy_coeff *. fs.voltage
         *. fs.voltage)
  in
  let wait_for r =
    if pending.(r) <> neg_infinity then begin
      (match recorder with
      | Some rc -> Tape.record rc Tape.tag_wait r
      | None -> ());
      if pending.(r) > fs.time +. fs.dtime then begin
        commit ();
        fs.stall <- fs.stall +. (pending.(r) -. fs.time);
        fs.time <- pending.(r)
      end
    end
  in
  let clear_pending rd =
    if pending.(rd) <> neg_infinity then begin
      (match recorder with
      | Some rc -> Tape.record rc Tape.tag_clear rd
      | None -> ());
      pending.(rd) <- neg_infinity
    end
  in
  (* Start a DRAM transaction; a load ([rd >= 0]) makes its destination
     pending until the completion, a store ([rd = -1]) only extends the
     miss-busy window.  Storing the completion here, rather than
     returning it, keeps it unboxed. *)
  let issue_miss rd =
    let anow = fs.time +. fs.dtime in
    let completion = anow +. cfg.dram_latency in
    if anow >= fs.busy_end then begin
      fs.miss_busy <- fs.miss_busy +. cfg.dram_latency;
      (* A fresh miss-overlap window opens (extensions of a live window
         are not re-announced, so the event count is the window count). *)
      if obs_on then
        Tr.event tr ~stability:Tr.Stable "sim.miss_window"
          ~attrs:[ ("t", Tr.Float anow) ]
    end
    else if completion > fs.busy_end then
      fs.miss_busy <- fs.miss_busy +. (completion -. fs.busy_end);
    if completion > fs.busy_end then fs.busy_end <- completion;
    if rd >= 0 then pending.(rd) <- completion
  in
  let set_mode m =
    if m < 0 || m >= n_modes then invalid_arg "Cpu.run: mode out of range";
    if m <> !mode then begin
      commit ();
      let cur = Dvs_power.Mode.get table !mode in
      let nxt = Dvs_power.Mode.get table m in
      let dt = Dvs_power.Switch_cost.time cfg.regulator cur.voltage nxt.voltage in
      let de = Dvs_power.Switch_cost.energy cfg.regulator cur.voltage nxt.voltage in
      fs.time <- fs.time +. dt;
      fs.energy <- fs.energy +. de;
      fs.t_time <- fs.t_time +. dt;
      fs.t_energy <- fs.t_energy +. de;
      incr transitions;
      if obs_on then
        Tr.event tr ~stability:Tr.Stable "sim.mode_transition"
          ~attrs:
            [ ("from", Tr.Int !mode); ("to", Tr.Int m);
              ("t", Tr.Float fs.time) ];
      mode := m;
      fs.voltage <- nxt.voltage;
      fs.freq <- nxt.frequency
    end
  in
  let check_addr a =
    if a < 0 || a >= Array.length mem then
      failwith (Printf.sprintf "Cpu.run: address %d out of bounds" a)
  in
  let exec (i : Instr.t) =
    incr dyn;
    match i with
    | Instr.Li (rd, v) ->
      charge `Compute (Instr.latency i);
      regs.(rd) <- v;
      clear_pending rd
    | Instr.Mov (rd, rs) ->
      wait_for rs;
      charge `Compute (Instr.latency i);
      regs.(rd) <- regs.(rs);
      clear_pending rd
    | Instr.Binop (op, rd, rs1, rs2) ->
      wait_for rs1;
      wait_for rs2;
      charge `Compute (Instr.latency i);
      regs.(rd) <- Instr.eval_binop op regs.(rs1) regs.(rs2);
      clear_pending rd
    | Instr.Load (rd, rs, off) ->
      wait_for rs;
      let a = regs.(rs) + off in
      check_addr a;
      let outcome = Hierarchy.access hier ~word_addr:a in
      if Hierarchy.dram outcome then begin
        (* One issue cycle; the lookup overlaps the DRAM transaction. *)
        charge `Mem_hit 1;
        (match recorder with
        | Some r -> Tape.record r Tape.tag_miss_load rd
        | None -> ());
        issue_miss rd
      end
      else begin
        charge `Mem_hit (1 + Hierarchy.cycles outcome);
        clear_pending rd
      end;
      regs.(rd) <- mem.(a)
    | Instr.Store (rv, rs, off) ->
      wait_for rv;
      wait_for rs;
      let a = regs.(rs) + off in
      check_addr a;
      let outcome = Hierarchy.access hier ~word_addr:a in
      if Hierarchy.dram outcome then begin
        charge `Mem_hit 1;
        (match recorder with
        | Some r -> Tape.record r Tape.tag_miss_store 0
        | None -> ());
        issue_miss (-1)
      end
      else charge `Mem_hit (1 + Hierarchy.cycles outcome);
      mem.(a) <- regs.(rv)
    | Instr.Nop -> charge `Compute 1
    | Instr.Modeset m ->
      (match recorder with
      | Some r -> Tape.record r Tape.tag_modeset m
      | None -> ());
      set_mode m
  in
  (* Interval governor: consulted at block boundaries. *)
  let gov_next = ref infinity in
  let gov_window_start = ref 0.0 in
  let gov_stall_mark = ref 0.0 in
  (match governor with
  | Some gv ->
    if not (gv.gov_interval > 0.0) then
      invalid_arg "Cpu.run: governor interval must be positive";
    gov_next := gv.gov_interval
  | None -> ());
  let consult_governor () =
    match governor with
    | None -> ()
    | Some gv ->
      if fs.time >= !gov_next then begin
        let elapsed = fs.time -. !gov_window_start in
        let stalled = fs.stall -. !gov_stall_mark in
        let busy_fraction =
          if elapsed <= 0.0 then 1.0
          else Float.max 0.0 (Float.min 1.0 (1.0 -. (stalled /. elapsed)))
        in
        let next = gv.gov_decide ~busy_fraction ~current_mode:!mode in
        set_mode (Int.max 0 (Int.min (n_modes - 1) next));
        gov_window_start := fs.time;
        gov_stall_mark := fs.stall;
        gov_next := fs.time +. gv.gov_interval
      end
  in
  (* [src] is the block the run arrived from, -1 at program entry (an
     int rather than an option: this runs once per dynamic block). *)
  let rec step label src budget =
    if budget <= 0 then raise Out_of_fuel;
    consult_governor ();
    (if src >= 0 then
       match edge_modes with
       | Some f -> (
         match f { Cfg.src; dst = label } with
         | Some m -> set_mode m
         | None -> ())
       | None -> ());
    (match recorder with
    | Some r -> Tape.enter_block r ~label
    | None -> ());
    (match observer with
    | Some f ->
      let via = if src < 0 then None else Some src in
      f label ~via ~time:fs.time ~energy:fs.energy
    | None -> ());
    let b = Cfg.block g label in
    Array.iter exec b.Cfg.body;
    match b.Cfg.term with
    | Cfg.Halt ->
      commit ();
      (* Drain outstanding memory traffic. *)
      if fs.busy_end > fs.time then begin
        fs.stall <- fs.stall +. (fs.busy_end -. fs.time);
        fs.time <- fs.busy_end
      end
    | Cfg.Jump l ->
      charge `Compute 1;
      commit ();
      step l label (budget - 1)
    | Cfg.Branch (r, taken, fallthrough) ->
      wait_for r;
      charge `Compute 1;
      commit ();
      let dst = if regs.(r) <> 0 then taken else fallthrough in
      step dst label (budget - 1)
  in
  step (Cfg.entry g) (-1) fuel;
  if obs_on then begin
    (* Merge-time aggregation: the hot loop above never touched the
       registry.  The cycle split is the measured Noverlap / Ndependent /
       Ncache decomposition of Section 2. *)
    let mxr = Dvs_obs.metrics obs in
    let module Mc = Dvs_obs.Metrics.Counter in
    let c kind =
      Dvs_obs.Metrics.counter mxr ~stability:Dvs_obs.Metrics.Stable kind
    in
    Mc.add (c "sim.cycles.overlap") ~slot:0 !overlap_cycles;
    Mc.add (c "sim.cycles.dependent") ~slot:0 !dependent_cycles;
    Mc.add (c "sim.cycles.cache_hit") ~slot:0 !cache_hit_cycles;
    Mc.add (c "sim.mode_transitions") ~slot:0 !transitions;
    Mc.add (c "sim.dyn_instrs") ~slot:0 !dyn;
    let g name v =
      Dvs_obs.Metrics.Gauge.set
        (Dvs_obs.Metrics.gauge mxr ~stability:Dvs_obs.Metrics.Stable name) v
    in
    g "sim.time_seconds" fs.time;
    g "sim.energy_joules" fs.energy;
    g "sim.stall_seconds" fs.stall;
    g "sim.miss_busy_seconds" fs.miss_busy;
    Tr.finish tr run_span
      ~attrs:
        [ ("time", Tr.Float fs.time); ("energy", Tr.Float fs.energy);
          ("dyn_instrs", Tr.Int !dyn);
          ("mode_transitions", Tr.Int !transitions) ]
  end;
  { time = fs.time; energy = fs.energy; dyn_instrs = !dyn;
    mode_transitions = !transitions; transition_time = fs.t_time;
    transition_energy = fs.t_energy; l1 = Hierarchy.l1_stats hier;
    l2 = Hierarchy.l2_stats hier; overlap_cycles = !overlap_cycles;
    dependent_cycles = !dependent_cycles;
    cache_hit_cycles = !cache_hit_cycles; miss_busy_time = fs.miss_busy;
    stall_time = fs.stall; registers = regs; memory = mem }
