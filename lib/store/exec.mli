(** Store-aware drivers for the expensive artifact classes.

    Each driver composes the canonical cache key for one computation,
    consults the store, and either rehydrates the stored artifact or
    runs the real computation and stores the result.  [?store = None]
    is always exactly the underlying computation.

    On a solve/sweep hit the stored stable-counter deltas are replayed
    into the pipeline's metrics registry ({!Capture}), so a warm run's
    [Stable] metrics are bit-identical to the cold run's while zero
    simulations and zero LP solves execute.

    Two classes of result are deliberately never stored: fault-injected
    solves (the injector's whole point is to exercise the live path) and
    results whose outcome depended on the wall clock or on contained
    crashes ([Time_limit] stops, [Degraded] outcomes, [Worker_crash]
    descents) — caching those would freeze one run's scheduling accident
    into every future run. *)

val profile :
  ?store:Store.t ->
  ?fuel:int ->
  source:string ->
  Dvs_machine.Config.t ->
  Dvs_ir.Cfg.t ->
  memory:int array ->
  Dvs_profile.Profile.t
(** Store-backed {!Dvs_profile.Profile.collect}.  [source] names the
    program and input (e.g. ["adpcm:default"]); together with the
    memory-image fingerprint and every machine parameter it pins the
    key.  Artifact kind: ["sim"] — one entry covers the per-mode pinned
    simulation runs. *)

val optimize_multi :
  ?store:Store.t ->
  ?config:Dvs_core.Pipeline.Config.t ->
  ?verify_config:Dvs_machine.Config.t ->
  ?session:(unit -> Dvs_core.Verify.Session.t) ->
  regulator:Dvs_power.Switch_cost.regulator ->
  memory:int array ->
  Dvs_core.Formulation.category list ->
  Dvs_core.Pipeline.result
(** Store-backed {!Dvs_core.Pipeline.optimize_multi}.  [session] is a
    thunk, forced only on a miss and only when the first profile's own
    recording cannot serve the verification
    ({!Dvs_core.Verify.Session.profile_fits}): a profile collected in
    this process needs no thunk, one decoded from a [sim] hit does.  On
    a hit nothing verifies, no session is created, and the profile's
    recording is dropped.  Artifact kind: ["solve"]. *)

val optimize_sweep :
  ?store:Store.t ->
  ?config:Dvs_core.Pipeline.Config.t ->
  ?verify_config:Dvs_machine.Config.t ->
  ?profile:Dvs_profile.Profile.t ->
  ?session:(unit -> Dvs_core.Verify.Session.t) ->
  Dvs_machine.Config.t ->
  Dvs_ir.Cfg.t ->
  memory:int array ->
  deadlines:float array ->
  Dvs_core.Pipeline.sweep_result
(** Store-backed {!Dvs_core.Pipeline.optimize_sweep}: the whole deadline
    grid is one ["sweep"] entry, so a warm Table-4 grid costs one store
    read.  Without [profile] it profiles first.  [session] is forced
    exactly as in {!optimize_multi}; on a hit the profile's recording is
    dropped. *)
