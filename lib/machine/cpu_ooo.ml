open Dvs_ir

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

(* Circular buffer of the completion times of the last [window]
   instructions: instruction i cannot fetch before instruction (i -
   window) has completed. *)
type window = { slots : float array; mutable head : int }

let window_gate w = w.slots.(w.head)

let window_push w completion =
  w.slots.(w.head) <- completion;
  w.head <- (w.head + 1) mod Array.length w.slots

let run ?(rc = Cpu.Run_config.default) ?(window = 64) ?(issue_width = 4)
    (cfg : Config.t) g ~memory =
  let { Cpu.Run_config.fuel; initial_mode; edge_modes; governor; recorder;
        _ } =
    rc
  in
  if governor <> None then
    invalid_arg "Cpu_ooo.run: governors are not modeled";
  if recorder <> None then
    invalid_arg "Cpu_ooo.run: tape recording is not supported";
  if window < 1 then invalid_arg "Cpu_ooo.run: window must be >= 1";
  if issue_width < 1 then invalid_arg "Cpu_ooo.run: issue width must be >= 1";
  let table = cfg.Config.mode_table in
  let n_modes = Dvs_power.Mode.size table in
  let initial_mode =
    match initial_mode with Some m -> m | None -> n_modes - 1
  in
  if initial_mode < 0 || initial_mode >= n_modes then
    invalid_arg "Cpu_ooo.run: initial mode out of range";
  let hier = Hierarchy.create cfg in
  let regs = Array.make (max_reg_of_cfg g + 1) 0 in
  let mem = Array.copy memory in
  (* Timing state: absolute seconds. *)
  let ready = Array.make (Array.length regs) 0.0 in
  let win = { slots = Array.make window 0.0; head = 0 } in
  let fetch_avail = ref 0.0 in
  let end_time = ref 0.0 in
  let energy = ref 0.0 in
  let mode = ref initial_mode in
  let voltage = ref (Dvs_power.Mode.get table initial_mode).voltage in
  let freq = ref (Dvs_power.Mode.get table initial_mode).frequency in
  let dyn = ref 0 in
  let transitions = ref 0 in
  let t_time = ref 0.0 and t_energy = ref 0.0 in
  let overlap_cycles = ref 0 and dependent_cycles = ref 0 in
  let cache_hit_cycles = ref 0 in
  let busy_end = ref neg_infinity and miss_busy = ref 0.0 in
  let window_stall = ref 0.0 in
  let charge_energy cycles =
    energy :=
      !energy
      +. (float_of_int cycles *. cfg.Config.active_energy_coeff *. !voltage
         *. !voltage)
  in
  let issue_miss issue_time =
    let completion = issue_time +. cfg.Config.dram_latency in
    if issue_time >= !busy_end then
      miss_busy := !miss_busy +. cfg.Config.dram_latency
    else if completion > !busy_end then
      miss_busy := !miss_busy +. (completion -. !busy_end);
    if completion > !busy_end then busy_end := completion;
    completion
  in
  (* Fetch slot allocation: [issue_width] instructions per cycle, gated
     by the reorder window. *)
  let fetch_slot () =
    let gate = window_gate win in
    if gate > !fetch_avail then begin
      window_stall := !window_stall +. (gate -. !fetch_avail);
      fetch_avail := gate
    end;
    let slot = !fetch_avail in
    fetch_avail := slot +. (1.0 /. (float_of_int issue_width *. !freq));
    slot
  in
  let classify issue_time cycles =
    if issue_time < !busy_end then overlap_cycles := !overlap_cycles + cycles
    else dependent_cycles := !dependent_cycles + cycles
  in
  let finish completion =
    window_push win completion;
    if completion > !end_time then end_time := completion
  in
  let set_mode m =
    if m < 0 || m >= n_modes then invalid_arg "Cpu_ooo.run: mode out of range";
    if m <> !mode then begin
      (* Drain the pipeline, then switch. *)
      let drain = Float.max !end_time !fetch_avail in
      let cur = Dvs_power.Mode.get table !mode in
      let nxt = Dvs_power.Mode.get table m in
      let dt =
        Dvs_power.Switch_cost.time cfg.Config.regulator cur.voltage
          nxt.voltage
      in
      let de =
        Dvs_power.Switch_cost.energy cfg.Config.regulator cur.voltage
          nxt.voltage
      in
      energy := !energy +. de;
      t_time := !t_time +. dt;
      t_energy := !t_energy +. de;
      incr transitions;
      mode := m;
      voltage := nxt.voltage;
      freq := nxt.frequency;
      fetch_avail := drain +. dt;
      if drain +. dt > !end_time then end_time := drain +. dt
    end
  in
  let exec (i : Instr.t) =
    incr dyn;
    match i with
    | Instr.Li (rd, v) ->
      let t = fetch_slot () in
      let completion = t +. (1.0 /. !freq) in
      charge_energy 1;
      classify t 1;
      regs.(rd) <- v;
      ready.(rd) <- completion;
      finish completion
    | Instr.Mov (rd, rs) ->
      let t = Float.max (fetch_slot ()) ready.(rs) in
      let completion = t +. (1.0 /. !freq) in
      charge_energy 1;
      classify t 1;
      regs.(rd) <- regs.(rs);
      ready.(rd) <- completion;
      finish completion
    | Instr.Binop (op, rd, rs1, rs2) ->
      let lat = Instr.latency i in
      let t =
        Float.max (fetch_slot ()) (Float.max ready.(rs1) ready.(rs2))
      in
      let completion = t +. (float_of_int lat /. !freq) in
      charge_energy lat;
      classify t lat;
      regs.(rd) <- Instr.eval_binop op regs.(rs1) regs.(rs2);
      ready.(rd) <- completion;
      finish completion
    | Instr.Load (rd, rs, off) ->
      let a = regs.(rs) + off in
      if a < 0 || a >= Array.length mem then
        failwith (Printf.sprintf "Cpu_ooo.run: address %d out of bounds" a);
      let outcome = Hierarchy.access hier ~word_addr:a in
      let t = Float.max (fetch_slot ()) ready.(rs) in
      let completion =
        if Hierarchy.dram outcome then begin
          charge_energy 1;
          cache_hit_cycles := !cache_hit_cycles + 1;
          issue_miss (t +. (1.0 /. !freq))
        end
        else begin
          let c = 1 + Hierarchy.cycles outcome in
          charge_energy c;
          cache_hit_cycles := !cache_hit_cycles + c;
          t +. (float_of_int c /. !freq)
        end
      in
      regs.(rd) <- mem.(a);
      ready.(rd) <- completion;
      finish completion
    | Instr.Store (rv, rs, off) ->
      let a = regs.(rs) + off in
      if a < 0 || a >= Array.length mem then
        failwith (Printf.sprintf "Cpu_ooo.run: address %d out of bounds" a);
      let outcome = Hierarchy.access hier ~word_addr:a in
      let t = Float.max (fetch_slot ()) (Float.max ready.(rv) ready.(rs)) in
      let retire =
        if Hierarchy.dram outcome then begin
          charge_energy 1;
          cache_hit_cycles := !cache_hit_cycles + 1;
          (* The store retires into a store buffer after issue; only the
             DRAM drain (tracked by the busy union) outlives it. *)
          ignore (issue_miss (t +. (1.0 /. !freq)));
          t +. (1.0 /. !freq)
        end
        else begin
          let c = 1 + Hierarchy.cycles outcome in
          charge_energy c;
          cache_hit_cycles := !cache_hit_cycles + c;
          t +. (float_of_int c /. !freq)
        end
      in
      mem.(a) <- regs.(rv);
      finish retire
    | Instr.Nop ->
      let t = fetch_slot () in
      charge_energy 1;
      classify t 1;
      finish (t +. (1.0 /. !freq))
    | Instr.Modeset m -> set_mode m
  in
  (* Branch resolution: perfect prediction, but the condition register
     is read (occupies a fetch slot and a cycle). *)
  let exec_term_read r =
    let t = Float.max (fetch_slot ()) ready.(r) in
    charge_energy 1;
    classify t 1;
    finish (t +. (1.0 /. !freq))
  in
  let exec_jump () =
    let t = fetch_slot () in
    charge_energy 1;
    classify t 1;
    finish (t +. (1.0 /. !freq))
  in
  let edge_mode e = match edge_modes with Some f -> f e | None -> None in
  let rec step label via budget =
    if budget <= 0 then raise Cpu.Out_of_fuel;
    (match via with
    | Some src -> (
      match edge_mode { Cfg.src; dst = label } with
      | Some m -> set_mode m
      | None -> ())
    | None -> ());
    let b = Cfg.block g label in
    Array.iter exec b.Cfg.body;
    match b.Cfg.term with
    | Cfg.Halt -> ()
    | Cfg.Jump l ->
      exec_jump ();
      step l (Some label) (budget - 1)
    | Cfg.Branch (r, taken, fallthrough) ->
      exec_term_read r;
      let dst = if regs.(r) <> 0 then taken else fallthrough in
      step dst (Some label) (budget - 1)
  in
  step (Cfg.entry g) None fuel;
  (* Drain outstanding memory traffic (store buffer included). *)
  let final_time =
    Float.max (Float.max !end_time !fetch_avail)
      (if Float.is_finite !busy_end then !busy_end else 0.0)
  in
  { Cpu.time = final_time; energy = !energy;
    dyn_instrs = !dyn; mode_transitions = !transitions;
    transition_time = !t_time; transition_energy = !t_energy;
    l1 = Hierarchy.l1_stats hier; l2 = Hierarchy.l2_stats hier;
    overlap_cycles = !overlap_cycles; dependent_cycles = !dependent_cycles;
    cache_hit_cycles = !cache_hit_cycles; miss_busy_time = !miss_busy;
    stall_time = !window_stall; registers = regs; memory = mem }
