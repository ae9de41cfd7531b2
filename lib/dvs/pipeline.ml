module Solver = Dvs_milp.Solver

(* Resilience policy for the degradation ladder: how hard to retry the
   MILP before falling back to cheaper, always-available schedules. *)
module Resilience = struct
  type entry = From_milp | From_rounded_lp | From_single_mode

  type t = { max_retries : int; entry : entry }

  let make ?(entry = From_milp) () = { max_retries = 2; entry }

  let default = make ()

  (* Retry [k] runs with [max_nodes * retry_budget_factor^k]. *)
  let retry_budget_factor = 0.5

  (* Map a shrinking wall-clock budget onto ladder entry points: a
     request that has burned most of its budget queueing should not pay
     for a MILP attempt it can no longer afford.  Thresholds are
     fractions of the original budget, so the policy scales with the
     caller's patience rather than with absolute solve times. *)
  let for_budget ~budget ~remaining t =
    if not (budget > 0.0) then
      invalid_arg "Pipeline.Resilience.for_budget: budget must be > 0";
    let r = remaining /. budget in
    if r >= 0.5 then { t with entry = From_milp }
    else if r >= 0.2 then { entry = From_milp; max_retries = 0 }
    else if r >= 0.05 then { t with entry = From_rounded_lp }
    else { t with entry = From_single_mode }
end

module Config = struct
  type t = {
    filter : bool;
    solver : Solver.Config.t;
    resilience : Resilience.t;
    cold_verify : bool;
    continuous_bound : bool;
  }

  let make ?(filter = true) ?solver
      ?(resilience = Resilience.default) ?(cold_verify = false)
      ?(continuous_bound = true) () =
    let solver =
      match solver with
      | Some s -> s
      | None -> Solver.Config.make ()
    in
    { filter; solver; resilience; cold_verify;
      continuous_bound }

  let default = make ()

  (* The obs bundle lives in the nested solver config; setting it here
     threads one registry through all three layers (solver, pipeline
     rungs, verification simulator). *)
  let with_obs obs t = { t with solver = Solver.Config.with_obs obs t.solver }

  let obs t = t.solver.Solver.Config.obs
end

(* ---- degradation ladder ------------------------------------------------ *)

type rung =
  | Milp
  | Milp_retry of int
  | Rounded_lp
  | Continuous_rounded
  | Single_mode

let pp_rung ppf = function
  | Milp -> Format.pp_print_string ppf "full MILP"
  | Milp_retry n -> Format.fprintf ppf "MILP cold retry %d" n
  | Rounded_lp -> Format.pp_print_string ppf "rounded LP relaxation"
  | Continuous_rounded ->
    Format.pp_print_string ppf "rounded continuous schedule"
  | Single_mode ->
    Format.pp_print_string ppf "single-best-frequency baseline"

type cause = Limit_hit | Worker_crash | Numeric | Verify_reject

let cause_name = function
  | Limit_hit -> "limit_hit"
  | Worker_crash -> "worker_crash"
  | Numeric -> "numeric"
  | Verify_reject -> "verify_reject"

type descent = { rung_failed : rung; cause : cause; detail : string }

let pp_descent ppf d =
  Format.fprintf ppf "%a rejected: %s" pp_rung d.rung_failed d.detail

type degradation_class =
  | Full
  | Time_degraded
  | Crash_degraded
  | Verify_degraded
  | Problem_infeasible
  | No_schedule

let pp_class ppf c =
  Format.pp_print_string ppf
    (match c with
    | Full -> "full (optimal, verified)"
    | Time_degraded -> "time-limit-degraded"
    | Crash_degraded -> "worker-crash-degraded"
    | Verify_degraded -> "verify-reject-degraded"
    | Problem_infeasible -> "infeasible"
    | No_schedule -> "no schedule")

type result = {
  categories : Formulation.category list;
  formulation : Formulation.t;
  milp : Solver.result;
  predicted_energy : float option;
  schedule : Schedule.t option;
  verification : Verify.report option;
  solve_seconds : float;
  independent_edges : int;
  rung : rung option;
  descents : descent list;
  continuous_bound : float option;
}

let classify (r : result) =
  match r.schedule with
  | None ->
    if r.milp.Solver.outcome = Solver.Infeasible then Problem_infeasible
    else No_schedule
  | Some _ ->
    let crash_in_accepted =
      match r.milp.Solver.outcome with
      | Solver.Degraded d -> d.Solver.crashes <> []
      | _ -> false
    in
    let has c = List.exists (fun d -> d.cause = c) r.descents in
    if crash_in_accepted || has Worker_crash then Crash_degraded
    else if has Verify_reject then Verify_degraded
    else if has Numeric || has Limit_hit then Time_degraded
    else (
      match r.milp.Solver.outcome with
      | Solver.Optimal -> Full
      | Solver.Feasible _ | Solver.Degraded _ | Solver.Infeasible
      | Solver.Unbounded | Solver.No_solution _ -> Time_degraded)

type prepared = {
  prep_formulation : Formulation.t;
  prep_independent_edges : int;
}

let prepare ?config ~regulator categories =
  let config = match config with Some c -> c | None -> Config.default in
  let profiles =
    List.map (fun (c : Formulation.category) -> c.Formulation.profile)
      categories
  in
  let weights =
    List.map (fun (c : Formulation.category) -> c.Formulation.weight)
      categories
  in
  let repr =
    if config.Config.filter then
      Some (Filter.representatives ~weights profiles)
    else None
  in
  let formulation = Formulation.build ?repr ~regulator categories in
  let independent_edges =
    match repr with
    | Some r -> Filter.independent_count r
    | None -> Array.length formulation.Formulation.repr
  in
  { prep_formulation = formulation;
    prep_independent_edges = independent_edges }

(* Both pipeline entry points get their verification session here and
   say where it came from.  Volatile: after a store [sim] hit the profile
   holds no recording, so a warm run records where the cold one took
   over. *)
let verify_session ~config ?session vconfig profile ~memory =
  let source, s =
    Verify.Session.for_profile ?session ~cold:config.Config.cold_verify
      vconfig profile ~memory
  in
  let obs = Config.obs config in
  if Dvs_obs.enabled obs then
    Dvs_obs.Trace.event (Dvs_obs.trace obs) "pipeline.session"
      ~stability:Dvs_obs.Trace.Volatile
      ~attrs:
        [ ("source", Dvs_obs.Trace.String (Verify.Session.source_name source))
        ];
  s

let optimize_multi ?config ?verify_config ?session ~regulator ~memory
    categories =
  let config = match config with Some c -> c | None -> Config.default in
  let obs = Config.obs config in
  let tr = Dvs_obs.trace obs in
  let obs_on = Dvs_obs.enabled obs in
  let module Tr = Dvs_obs.Trace in
  let pipe_span =
    if obs_on then
      Tr.start tr ~stability:Tr.Stable "pipeline.optimize"
        ~attrs:[ ("categories", Tr.Int (List.length categories)) ]
    else Tr.start Tr.disabled "pipeline.optimize"
  in
  let { prep_formulation = formulation;
        prep_independent_edges = independent_edges } =
    prepare ~config ~regulator categories
  in
  let n_modes = Dvs_power.Mode.size formulation.Formulation.modes in
  (* Exact continuous relaxation of the instance: its optimum is a root
     dual bound, and its discrete rounding — when deadline-admissible —
     a better incumbent seed than the all-fastest schedule. *)
  let deadlines_us =
    Array.of_list
      (List.map
         (fun (c : Formulation.category) -> c.Formulation.deadline *. 1e6)
         categories)
  in
  let relax =
    if config.Config.continuous_bound then
      Some (Relaxation.prepare formulation ~regulator categories)
    else None
  in
  let cont_bound =
    match relax with
    | Some rx -> Relaxation.bound rx ~deadlines_us
    | None -> None
  in
  let rounded =
    match relax with
    | Some rx -> Relaxation.round rx ~deadlines_us
    | None -> None
  in
  let mx = Dvs_obs.metrics obs in
  let module Mc = Dvs_obs.Metrics.Counter in
  (* Deterministic (a pure function of the instance), hence Stable. *)
  let c_rounding =
    Dvs_obs.Metrics.counter mx ~stability:Stable "bb.rounding_incumbents"
  in
  (match rounded with
  | Some _ -> if obs_on then Mc.incr c_rounding ~slot:0
  | None -> ());
  let base_solver =
    config.Config.solver
    |> Solver.Config.with_sos1
         (List.map
            (fun (_, vars) -> Array.to_list vars)
            formulation.Formulation.kvars)
    (* Seed the incumbent: the rounded continuous schedule when it was
       admitted, else every edge at the fastest mode (feasible whenever
       the instance is). *)
    |> Solver.Config.with_warm_start
         (match rounded with
         | Some r -> r.Relaxation.fixings
         | None ->
           List.concat_map
             (fun (_, vars) ->
               List.init n_modes (fun m ->
                   (vars.(m), if m = n_modes - 1 then 1.0 else 0.0)))
             formulation.Formulation.kvars)
    (* Deadline-implied mode exclusions feed the MILP presolve. *)
    |> Solver.Config.with_fixings
         (Formulation.implied_fixings formulation categories)
    |> match cont_bound with
       | Some b -> Solver.Config.with_root_bound b
       | None -> Fun.id
  in
  let res = config.Config.resilience in
  let cat0 = List.hd categories in
  let profile0 = cat0.Formulation.profile in
  let cfg0 = profile0.Dvs_profile.Profile.cfg in
  let deadline0 = cat0.Formulation.deadline in
  let vconfig =
    match verify_config with
    | Some c -> c
    | None -> profile0.Dvs_profile.Profile.config
  in
  (* One warm session for the whole call: the caller's, else the
     profile's own recording, else one recorded at first use.
     Successive rung verifications are incremental against each other,
     so a ladder descent replays only what its schedule change touches. *)
  let the_session =
    verify_session ~config ?session vconfig profile0 ~memory
  in
  let last_report = ref None in
  let verify_run schedule predicted =
    let sp =
      if obs_on then Tr.start tr ~stability:Tr.Stable "pipeline.verify"
      else Tr.start Tr.disabled "pipeline.verify"
    in
    let v =
      Verify.Session.check ~obs ?against:!last_report
        (Lazy.force the_session) ~schedule ~deadline:deadline0
        ~predicted_energy:predicted
    in
    last_report := Some v;
    if obs_on then
      Tr.finish tr sp
        ~attrs:
          [ ("meets_deadline", Tr.Bool v.Verify.meets_deadline);
            ("energy_error", Tr.Float v.Verify.energy_error) ];
    v
  in
  let descents = ref [] in
  let note rung_failed cause detail =
    if obs_on then
      Tr.event tr ~stability:Tr.Stable "pipeline.rung_reject"
        ~attrs:
          [ ("rung", Tr.String (Format.asprintf "%a" pp_rung rung_failed));
            ("cause", Tr.String (cause_name cause));
            ("detail", Tr.String detail) ];
    descents := { rung_failed; cause; detail } :: !descents
  in
  let solve_seconds = ref 0.0 in
  let solve_attempt sc =
    let r = Solver.solve ~config:sc formulation.Formulation.model in
    solve_seconds :=
      !solve_seconds +. r.Solver.stats.Solver.wall_seconds;
    r
  in
  let finish milp rung schedule predicted verification =
    let r =
      { categories; formulation; milp; predicted_energy = predicted;
        schedule; verification; solve_seconds = !solve_seconds;
        independent_edges; rung; descents = List.rev !descents;
        continuous_bound = Option.map (fun b -> b /. 1e6) cont_bound }
    in
    if obs_on then begin
      let rung_name =
        match rung with
        | Some rg -> Format.asprintf "%a" pp_rung rg
        | None -> "none"
      in
      let cls = Format.asprintf "%a" pp_class (classify r) in
      Tr.event tr ~stability:Tr.Stable "pipeline.rung_accept"
        ~attrs:
          [ ("rung", Tr.String rung_name); ("class", Tr.String cls) ];
      Tr.finish tr pipe_span
        ~attrs:
          [ ("rung", Tr.String rung_name); ("class", Tr.String cls);
            ("descents", Tr.Int (List.length r.descents)) ]
    end;
    r
  in
  (* The single-best-frequency baseline doubles as the bottom rung and
     as the energy floor no degraded answer may exceed: an optimizer
     that returns something worse than "pick the one best frequency"
     has negative value (the paper's savings are relative to it). *)
  let baseline =
    lazy
      (match Baselines.best_single_mode profile0 ~deadline:deadline0 with
      | None -> None
      | Some (mode, e_model) ->
        let schedule = Schedule.uniform cfg0 mode in
        Some (e_model, schedule, verify_run schedule e_model))
  in
  let floor_exceeded (v : Verify.report) =
    match Lazy.force baseline with
    | Some (_, _, bv) when bv.Verify.meets_deadline ->
      v.Verify.stats.Dvs_machine.Cpu.energy
      > bv.Verify.stats.Dvs_machine.Cpu.energy *. 1.0000001
    | Some _ | None -> false
  in
  let baseline_rung milp0 =
    match Lazy.force baseline with
    | Some (e_model, schedule, v) when v.Verify.meets_deadline ->
      finish milp0 (Some Single_mode) (Some schedule) (Some e_model)
        (Some v)
    | Some _ ->
      note Single_mode Verify_reject
        "single-mode baseline missed the deadline in simulation";
      finish milp0 None None None None
    | None ->
      note Single_mode Verify_reject "no single mode meets the deadline";
      finish milp0 None None None None
  in
  (* The rounded continuous schedule sits between the rounded LP and
     the single-frequency floor: already admitted against the exact
     deadline row at rounding time, it only needs the simulator's and
     the floor's blessing.  Absent (feature off, or rounding was
     inadmissible) it steps straight down. *)
  let continuous_rung milp0 =
    match rounded with
    | None when not config.Config.continuous_bound -> baseline_rung milp0
    | None ->
      note Continuous_rounded Verify_reject
        "continuous rounding infeasible or missed the deadline";
      baseline_rung milp0
    | Some (r : Relaxation.rounded) ->
      let predicted = r.Relaxation.objective /. 1e6 in
      let v = verify_run r.Relaxation.schedule predicted in
      if not v.Verify.meets_deadline then begin
        note Continuous_rounded Verify_reject
          "continuous-rounded schedule missed the deadline in simulation";
        baseline_rung milp0
      end
      else if floor_exceeded v then begin
        note Continuous_rounded Verify_reject
          "continuous-rounded schedule costs more than the single-mode \
           baseline";
        baseline_rung milp0
      end
      else
        finish milp0 (Some Continuous_rounded)
          (Some r.Relaxation.schedule) (Some predicted) (Some v)
  in
  let rounded_rung milp0 =
    match Dvs_lp.Simplex.solve formulation.Formulation.model with
    | Dvs_lp.Simplex.Optimal s ->
      (* Argmax rounding of the fractional mode variables, SOS1 group
         by group — the same move the solver's rounding heuristic
         makes, available even when branch and bound is unusable.  The
         LP objective is only a lower bound on this schedule's energy,
         so acceptance rests on the simulation, not the prediction. *)
      let predicted = s.Dvs_lp.Simplex.objective /. 1e6 in
      let schedule = Schedule.of_solution formulation s in
      let v = verify_run schedule predicted in
      if not v.Verify.meets_deadline then begin
        note Rounded_lp Verify_reject
          "rounded-LP schedule missed the deadline in simulation";
        continuous_rung milp0
      end
      else if floor_exceeded v then begin
        note Rounded_lp Verify_reject
          "rounded-LP schedule costs more than the single-mode baseline";
        continuous_rung milp0
      end
      else
        finish milp0 (Some Rounded_lp) (Some schedule) (Some predicted)
          (Some v)
    | Dvs_lp.Simplex.Infeasible | Dvs_lp.Simplex.Unbounded
    | Dvs_lp.Simplex.Iter_limit _ ->
      note Rounded_lp Numeric "LP relaxation did not solve";
      continuous_rung milp0
  in
  let milp_cause (m : Solver.result) =
    match m.Solver.outcome with
    | Solver.Degraded _ -> Worker_crash
    | Solver.No_solution Solver.Iter_limit
    | Solver.Feasible Solver.Iter_limit -> Numeric
    | Solver.No_solution _ | Solver.Feasible _ | Solver.Optimal
    | Solver.Infeasible | Solver.Unbounded -> Limit_hit
  in
  let retry_budget attempt =
    Int.max 1
      (int_of_float
         (float_of_int base_solver.Solver.Config.max_nodes
         *. (Resilience.retry_budget_factor ** float_of_int attempt)))
  in
  let milp0 = ref None in
  let rec milp_rung attempt m =
    (match !milp0 with None -> milp0 := Some m | Some _ -> ());
    let first () = Option.value ~default:m !milp0 in
    let rung = if attempt = 0 then Milp else Milp_retry attempt in
    let reject cause detail =
      note rung cause detail;
      let retryable =
        match cause with
        | Numeric | Worker_crash | Verify_reject -> true
        | Limit_hit -> false
      in
      if retryable && attempt < res.Resilience.max_retries then begin
        (* Cold restart with a deterministically backed-off node
           budget: no warm start (it may be implicated in the numeric
           failure) and no shared cache (so a poisoned or stale entry
           cannot replay the failure). *)
        let sc =
          { base_solver with
            Solver.Config.warm_start = []; warm_solution = None;
            root_bound = None; cache = None;
            max_nodes = retry_budget (attempt + 1) }
        in
        milp_rung (attempt + 1) (solve_attempt sc)
      end
      else rounded_rung (first ())
    in
    match (m.Solver.outcome, m.Solver.solution) with
    | (Solver.Infeasible | Solver.Unbounded), _ ->
      (* Terminal: no deadline-feasible schedule exists (or the model
         is broken); no lower rung can manufacture one. *)
      finish m None None None None
    | _, Some s ->
      let predicted = s.Dvs_lp.Simplex.objective /. 1e6 in
      let schedule = Schedule.of_solution formulation s in
      let v = verify_run schedule predicted in
      if not v.Verify.meets_deadline then
        reject Verify_reject
          (Format.asprintf
             "MILP schedule missed the deadline in simulation (solver: \
              %a)"
             Solver.pp_outcome m.Solver.outcome)
      else if m.Solver.outcome <> Solver.Optimal && floor_exceeded v then
        reject (milp_cause m)
          "degraded incumbent costs more than the single-mode baseline"
      else finish m (Some rung) (Some schedule) (Some predicted) (Some v)
    | _, None ->
      reject (milp_cause m)
        (Format.asprintf "%a" Solver.pp_outcome m.Solver.outcome)
  in
  (* A placeholder result for ladders entered below the MILP rung (the
     caller's budget ruled the solve out): no solution, a trivial
     bound, zeroed stats — downstream consumers see an honest
     "time limit before any incumbent" outcome. *)
  let skipped_milp () =
    { Solver.outcome = Solver.No_solution Solver.Time_limit;
      solution = None;
      bound = Float.neg_infinity;
      stats =
        { Solver.nodes = 0; lp_solves = 0; lp_pivots = 0; cache_hits = 0;
          cache_misses = 0; cache_evictions = 0; steals = 0;
          wall_seconds = 0.0; cpu_seconds = 0.0; workers = 0;
          worker_nodes = [||] } }
  in
  match res.Resilience.entry with
  | Resilience.From_milp -> milp_rung 0 (solve_attempt base_solver)
  | Resilience.From_rounded_lp ->
    note Milp Limit_hit
      "skipped: caller budget too small for a MILP attempt";
    rounded_rung (skipped_milp ())
  | Resilience.From_single_mode ->
    note Milp Limit_hit
      "skipped: caller budget too small for a MILP attempt";
    note Rounded_lp Limit_hit
      "skipped: caller budget too small for an LP attempt";
    baseline_rung (skipped_milp ())

let optimize ?config machine cfg ~memory ~deadline =
  let profile = Dvs_profile.Profile.collect machine cfg ~memory in
  optimize_multi ?config
    ~regulator:machine.Dvs_machine.Config.regulator ~memory
    [ { Formulation.profile; weight = 1.0; deadline } ]

type sweep_result = {
  results : result array;
  sweep : Dvs_milp.Sweep.stats;
}

let optimize_sweep ?config ?verify_config ?profile ?session machine cfg
    ~memory ~deadlines =
  let config = match config with Some c -> c | None -> Config.default in
  if Array.length deadlines = 0 then
    invalid_arg "Pipeline.optimize_sweep: empty deadlines";
  Array.iter
    (fun d ->
      if not (Float.is_finite d && d > 0.0) then
        invalid_arg "Pipeline.optimize_sweep: deadlines must be positive")
    deadlines;
  let obs = Config.obs config in
  let tr = Dvs_obs.trace obs in
  let obs_on = Dvs_obs.enabled obs in
  let module Tr = Dvs_obs.Trace in
  let regulator = machine.Dvs_machine.Config.regulator in
  (* Profile and formulate once, at the loosest deadline: deadline-implied
     mode exclusions derived there stay exact at every tighter point, and
     each sweep point is only an RHS delta on the shared model. *)
  let d_loosest = Array.fold_left Float.max neg_infinity deadlines in
  let profile =
    match profile with
    | Some p -> p
    | None -> Dvs_profile.Profile.collect machine cfg ~memory
  in
  let category d = { Formulation.profile; weight = 1.0; deadline = d } in
  let { prep_formulation = formulation;
        prep_independent_edges = independent_edges } =
    prepare ~config ~regulator [ category d_loosest ]
  in
  let n_modes = Dvs_power.Mode.size formulation.Formulation.modes in
  let base_solver =
    config.Config.solver
    |> Solver.Config.with_sos1
         (List.map
            (fun (_, vars) -> Array.to_list vars)
            formulation.Formulation.kvars)
    |> Solver.Config.with_warm_start
         (List.concat_map
            (fun (_, vars) ->
              List.init n_modes (fun m ->
                  (vars.(m), if m = n_modes - 1 then 1.0 else 0.0)))
            formulation.Formulation.kvars)
  in
  let deadline_row =
    match
      Dvs_lp.Model.constraint_indices formulation.Formulation.model
        ~name:"deadline"
    with
    | [ i ] -> i
    | rows ->
        invalid_arg
          (Printf.sprintf
             "Pipeline.optimize_sweep: expected one deadline row, found %d"
             (List.length rows))
  in
  let sweep_span =
    if obs_on then
      Tr.start tr ~stability:Tr.Stable "pipeline.sweep"
        ~attrs:[ ("points", Tr.Int (Array.length deadlines)) ]
    else Tr.start Tr.disabled "pipeline.sweep"
  in
  (* One prepared relaxation serves every grid point: [Relaxation.bound]
     is a pure function of (instance, deadline), so the sweep's
     pre-pruning callback is thread-safe by construction. *)
  let relax =
    if config.Config.continuous_bound then
      Some (Relaxation.prepare formulation ~regulator [ category d_loosest ])
    else None
  in
  let point_bound =
    Option.map
      (fun rx _ d_us -> Relaxation.bound rx ~deadlines_us:[| d_us |])
      relax
  in
  (* Per-point primal rounding: at lax deadlines the lift from a much
     tighter point is a poor incumbent, while the rounded continuous
     schedule is near-optimal — the sweep materializes whichever has the
     better known objective. *)
  let point_seed =
    Option.map
      (fun rx _ d_us ->
        Option.map
          (fun (r : Relaxation.rounded) ->
            (r.Relaxation.fixings, r.Relaxation.objective))
          (Relaxation.round rx ~deadlines_us:[| d_us |]))
      relax
  in
  let bound_at d =
    match relax with
    | Some rx ->
      Option.map
        (fun b -> b /. 1e6)
        (Relaxation.bound rx ~deadlines_us:[| d *. 1e6 |])
    | None -> None
  in
  let sw =
    Dvs_milp.Sweep.run ~config:base_solver
      ~per_point:(fun _ d cfgp ->
        (* Per-point implied fixings: exclusions get stronger as the
           deadline tightens (d is the row RHS, in microseconds). *)
        Solver.Config.with_fixings
          (Formulation.implied_fixings formulation [ category (d /. 1e6) ])
          cfgp)
      ?point_bound ?point_seed
      ~model:formulation.Formulation.model ~deadline_row
      ~deadlines:(Array.map (fun d -> d *. 1e6) deadlines)
      ()
  in
  if obs_on then
    Tr.finish tr sweep_span
      ~attrs:
        [ ("warm_started", Tr.Int sw.Dvs_milp.Sweep.stats.Dvs_milp.Sweep.instances_warm_started);
          ( "points_pruned",
            Tr.Int
              sw.Dvs_milp.Sweep.stats.Dvs_milp.Sweep.points_pruned_by_bound
          ) ];
  let vconfig =
    match verify_config with
    | Some c -> c
    | None -> profile.Dvs_profile.Profile.config
  in
  (* One summary session shared by every point (and every ladder
     fallback): usually the profile's own recording, so the whole
     30-point sweep pays for no simulation beyond profiling.  Sessions
     are domain-safe, so the verification fan-out below shares it
     freely. *)
  let session =
    Lazy.force (verify_session ~config ?session vconfig profile ~memory)
  in
  let point_result ~last i (p : Dvs_milp.Sweep.point) =
    let d = deadlines.(i) in
    let m = p.Dvs_milp.Sweep.result in
    let accept (s : Dvs_lp.Simplex.solution) =
      let predicted = s.Dvs_lp.Simplex.objective /. 1e6 in
      let schedule = Schedule.of_solution formulation s in
      (* Adjacent sweep points differ on few mode-set edges, so chain
         each worker's verifications incrementally. *)
      let v =
        Verify.Session.check ~obs ?against:!last session ~schedule
          ~deadline:d ~predicted_energy:predicted
      in
      last := Some v;
      if v.Verify.meets_deadline then
        Some
          {
            categories = [ category d ];
            formulation;
            milp = m;
            predicted_energy = Some predicted;
            schedule = Some schedule;
            verification = Some v;
            solve_seconds = m.Solver.stats.Solver.wall_seconds;
            independent_edges;
            rung = Some Milp;
            descents = [];
            continuous_bound = bound_at d;
          }
      else None
    in
    let fallback () =
      (* Anything short of a verified optimum falls back to the classic
         per-point degradation ladder, full resilience included. *)
      if obs_on then
        Tr.event tr ~stability:Tr.Stable "pipeline.sweep_fallback"
          ~attrs:
            [ ("point", Tr.Int i);
              ("outcome",
               Tr.String (Format.asprintf "%a" Solver.pp_outcome
                            m.Solver.outcome)) ];
      optimize_multi ~config ?verify_config ~session ~regulator ~memory
        [ category d ]
    in
    match (m.Solver.outcome, m.Solver.solution) with
    | (Solver.Infeasible | Solver.Unbounded), _ ->
        (* Terminal exactly as in the ladder: no rung can manufacture a
           deadline-feasible schedule. *)
        {
          categories = [ category d ]; formulation; milp = m;
          predicted_energy = None; schedule = None; verification = None;
          solve_seconds = m.Solver.stats.Solver.wall_seconds;
          independent_edges; rung = None; descents = [];
          continuous_bound = bound_at d;
        }
    | Solver.Optimal, Some s -> (
        match accept s with Some r -> r | None -> fallback ())
    | _ -> fallback ()
  in
  (* Verification (a full simulator run per point) and any ladder
     fallbacks are independent across points, and their metrics are
     order-independent totals — so they always fan out across available
     cores, while the solver-side sweep (whose incumbent lifting is
     order-sensitive) runs one point at a time. *)
  let points = sw.Dvs_milp.Sweep.points in
  let np = Array.length points in
  let results = Array.make np None in
  let n_workers = Int.min np (Domain.recommended_domain_count ()) in
  if n_workers <= 1 then begin
    let last = ref None in
    Array.iteri
      (fun i p -> results.(i) <- Some (point_result ~last i p))
      points
  end
  else begin
    let next = Atomic.make 0 in
    let worker () =
      let last = ref None in
      let rec drain () =
        let i = Atomic.fetch_and_add next 1 in
        if i < np then begin
          results.(i) <- Some (point_result ~last i points.(i));
          drain ()
        end
      in
      drain ()
    in
    let doms = Array.init (n_workers - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join doms
  end;
  let results =
    Array.map
      (function Some r -> r | None -> assert false (* every index drained *))
      results
  in
  { results; sweep = sw.Dvs_milp.Sweep.stats }
