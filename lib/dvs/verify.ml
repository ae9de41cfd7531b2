let deadline_tolerance = 0.005

type report = {
  stats : Dvs_machine.Cpu.run_stats;
  deadline : float;
  meets_deadline : bool;
  predicted_energy : float;
  energy_error : float;
  token : int;
}

let make_report stats ~deadline ~predicted_energy ~token =
  let meets_deadline =
    stats.Dvs_machine.Cpu.time <= deadline *. (1.0 +. deadline_tolerance)
  in
  let energy_error =
    if predicted_energy > 0.0 then
      Float.abs (stats.Dvs_machine.Cpu.energy -. predicted_energy)
      /. predicted_energy
    else 0.0
  in
  { stats; deadline; meets_deadline; predicted_energy; energy_error; token }

let simulate ?fuel ?obs config cfg ~memory ~schedule =
  let rc =
    Dvs_machine.Cpu.Run_config.make ?fuel ?obs
      ~initial_mode:schedule.Schedule.entry_mode
      ~edge_modes:(Schedule.edge_modes schedule cfg)
      ()
  in
  Dvs_machine.Cpu.run ~rc config cfg ~memory

module Session = struct
  type t = {
    config : Dvs_machine.Config.t;
    cfg : Dvs_ir.Cfg.t;
    memory : int array;
    fuel : int option;
    cold : bool;
    summary : Dvs_machine.Summary.t option;  (* None iff cold *)
  }

  let create ?fuel ?(cold = false) ?obs config cfg ~memory =
    let memory = Array.copy memory in
    let summary =
      if cold then None
      else Some (Dvs_machine.Summary.create ?fuel ?obs config cfg ~memory)
    in
    { config; cfg; memory; fuel; cold; summary }

  let cold t = t.cold

  type source = Profile | Caller | Recorded | Cold

  let source_name = function
    | Profile -> "profile"
    | Caller -> "caller"
    | Recorded -> "recorded"
    | Cold -> "cold"

  (* A recording serves a verification exactly when replaying it is
     replaying the run that verification would record: same machine,
     same program, same input image. *)
  let fits (r : Dvs_profile.Profile.recording) config
      (p : Dvs_profile.Profile.t) ~memory =
    r.rec_cfg == p.cfg && r.rec_config = config
    && (r.rec_memory == memory || r.rec_memory = memory)

  let profile_fits ~cold config p ~memory =
    (not cold)
    &&
    match Dvs_profile.Profile.recording p with
    | Some r -> fits r config p ~memory
    | None -> false

  (* The slot is emptied whatever the outcome, so a profile never pins a
     tape after the first call that could have used it. *)
  let for_profile ?session ~cold config (p : Dvs_profile.Profile.t) ~memory =
    match (session, Dvs_profile.Profile.take_recording p) with
    | Some s, _ -> (Caller, Lazy.from_val s)
    | None, Some r when (not cold) && fits r config p ~memory ->
      ( Profile,
        Lazy.from_val
          { config; cfg = r.rec_cfg; memory = r.rec_memory; fuel = None;
            cold = false; summary = Some r.rec_summary } )
    | None, _ ->
      ( (if cold then Cold else Recorded),
        lazy (create ~cold config p.cfg ~memory) )

  let edge_mode_of schedule =
    Array.map Option.some schedule.Schedule.edge_mode

  let check ?obs ?against t ~schedule ~deadline ~predicted_energy =
    match t.summary with
    | None ->
      let stats =
        simulate ?fuel:t.fuel ?obs t.config t.cfg ~memory:t.memory ~schedule
      in
      make_report stats ~deadline ~predicted_energy ~token:0
    | Some s ->
      let r =
        Dvs_machine.Summary.replay ?obs
          ?against:(Option.map (fun r -> r.token) against)
          s ~entry_mode:schedule.Schedule.entry_mode
          ~edge_mode:(edge_mode_of schedule)
      in
      make_report r.Dvs_machine.Summary.stats ~deadline ~predicted_energy
        ~token:r.Dvs_machine.Summary.token
end
