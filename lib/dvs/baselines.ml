open Dvs_ir

let best_single_mode (p : Dvs_profile.Profile.t) ~deadline =
  let n_modes = Array.length p.Dvs_profile.Profile.runs in
  let best = ref None in
  for m = 0 to n_modes - 1 do
    let t = Dvs_profile.Profile.pinned_time p ~mode:m in
    let e = Dvs_profile.Profile.pinned_energy p ~mode:m in
    if t <= deadline *. 1.000001 then
      match !best with
      | Some (_, e') when e' <= e -> ()
      | _ -> best := Some (m, e)
  done;
  !best

let hsu_kremer ?fuel config cfg ~memory ~profile ~deadline =
  let n_modes =
    Dvs_power.Mode.size config.Dvs_machine.Config.mode_table
  in
  let fast = n_modes - 1 and slow = 0 in
  let n_blocks = Cfg.num_blocks cfg in
  (* Memory-boundedness: a compute-bound block dilates by f_fast/f_slow
     when slowed; a memory-bound one barely dilates.  Rank by dilation
     ascending. *)
  let dilation j =
    let t_fast = Dvs_profile.Profile.block_time profile ~mode:fast j in
    let t_slow = Dvs_profile.Profile.block_time profile ~mode:slow j in
    if t_fast <= 0.0 then infinity else t_slow /. t_fast
  in
  let order =
    List.sort
      (fun a b -> Float.compare (dilation a) (dilation b))
      (List.init n_blocks Fun.id)
  in
  let schedule_of assignment =
    let edges = Cfg.edges cfg in
    { Schedule.edge_mode =
        Array.map (fun (e : Cfg.edge) -> assignment.(e.dst)) edges;
      entry_mode = assignment.(Cfg.entry cfg) }
  in
  let meets assignment =
    let s = schedule_of assignment in
    let rc =
      Dvs_machine.Cpu.Run_config.make ?fuel
        ~initial_mode:s.Schedule.entry_mode
        ~edge_modes:(Schedule.edge_modes s cfg) ()
    in
    let r = Dvs_machine.Cpu.run ~rc config cfg ~memory in
    r.Dvs_machine.Cpu.time <= deadline
  in
  let assignment = Array.make n_blocks fast in
  if not (meets assignment) then None
  else begin
    List.iter
      (fun j ->
        if profile.Dvs_profile.Profile.exec_count.(j) > 0 then begin
          assignment.(j) <- slow;
          if not (meets assignment) then assignment.(j) <- fast
        end)
      order;
    Some (schedule_of assignment)
  end

let weiser_governor ~interval =
  { Dvs_machine.Cpu.gov_interval = interval;
    gov_decide =
      (fun ~busy_fraction ~current_mode ->
        if busy_fraction > 0.9 then current_mode + 1
        else if busy_fraction < 0.65 then current_mode - 1
        else current_mode) }
