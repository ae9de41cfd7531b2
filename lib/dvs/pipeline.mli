(** End-to-end compile-time DVS: profile -> (filter) -> MILP -> schedule
    -> verify.  The driver behind the experiments and the CLI.

    {b Degradation ladder.} The pipeline is {e anytime}: instead of
    surfacing a failed or suspect MILP solve, it walks a ladder of
    progressively cheaper strategies until one produces a schedule that
    passes re-simulation — full MILP, then bounded cold retries without
    the warm start, then argmax rounding of the bare LP relaxation, then
    the rounded continuous schedule ({!Relaxation.round}), then the
    single-best-frequency baseline.  Every rung is post-checked with
    {!Verify.Session.check} (deadline met in simulation), degraded rungs
    are additionally rejected when they cost more energy than the
    single-mode baseline, and the result names the accepted rung plus
    every rejection on the way down ({!result.rung},
    {!result.descents}). *)

(** Retry/fallback policy for the degradation ladder. *)
module Resilience : sig
  (** Where the ladder starts.  Entering below {!From_milp} records the
      skipped rungs as [Limit_hit] descents, so the result still names
      why the cheaper strategy answered (a caller-imposed budget, not a
      solver failure at that rung). *)
  type entry = From_milp | From_rounded_lp | From_single_mode

  type t = {
    max_retries : int;
        (** cold MILP retries before falling to the LP rung: 2, or 0
            from {!for_budget}; retry [k] runs with half the node budget
            of retry [k - 1] *)
    entry : entry;
        (** first rung attempted (default {!From_milp}); the [dvsd]
            service lowers it as a request's wall-clock budget drains
            ({!for_budget}) *)
  }

  val make : ?entry:entry -> unit -> t

  val default : t
  (** [make ()]: 2 retries, entry {!From_milp}. *)

  val for_budget : budget:float -> remaining:float -> t -> t
  (** Budget-to-ladder mapping: with [remaining/budget >= 0.5] the
      policy is unchanged; [>= 0.2] keeps the MILP but drops the cold
      retries; [>= 0.05] enters at the rounded-LP rung; anything less
      goes straight to the single-mode baseline.  Raises
      [Invalid_argument] when [budget <= 0]. *)
end

(** Builder-style pipeline configuration; construct with {!Config.make}.
    The MILP leg is configured through a nested
    {!Dvs_milp.Solver.Config.t}, so callers control parallelism, limits
    and caching in one place. *)
module Config : sig
  type t = {
    filter : bool;
        (** apply Section 5.2 edge filtering at {!Filter}'s 2% threshold
            (default true) *)
    solver : Dvs_milp.Solver.Config.t;
    resilience : Resilience.t;
    cold_verify : bool;
        (** force every verification through the cycle-accurate
            simulator instead of warm {!Verify.Session} tape replay
            (default false); the CI [--cold-verify] leg keeps this exact
            path alive *)
    continuous_bound : bool;
        (** run the exact continuous relaxation ({!Relaxation}) before
            solving (default true): its optimum becomes the MILP's root
            dual bound and the sweep's pre-pruning certificate, its
            rounding the incumbent seed and the
            {!rung.Continuous_rounded} ladder rung; [false] is the
            ablation switch ([--no-continuous-bound]) *)
  }

  val make :
    ?filter:bool -> ?solver:Dvs_milp.Solver.Config.t ->
    ?resilience:Resilience.t -> ?cold_verify:bool ->
    ?continuous_bound:bool -> unit -> t
  (** [solver] defaults to [Dvs_milp.Solver.Config.make ()];
      [resilience] to {!Resilience.default}. *)

  val default : t

  val with_obs : Dvs_obs.t -> t -> t
  (** Thread one observability bundle through all three layers: the MILP
      solver, the pipeline's degradation-ladder events
      ([pipeline.rung_accept] / [pipeline.rung_reject]) and the
      verification simulator.  Stored in the nested solver config. *)

  val obs : t -> Dvs_obs.t
end

(** Which strategy of the degradation ladder produced the schedule. *)
type rung =
  | Milp  (** first full MILP solve *)
  | Milp_retry of int
      (** [k]-th cold retry: no warm start, no shared cache, node budget
          scaled by [0.5^k] *)
  | Rounded_lp
      (** argmax rounding of the bare LP relaxation (the one-binary-per
          SOS1-group structure makes fractional argmax a valid schedule) *)
  | Continuous_rounded
      (** {!Relaxation.round}: the exact continuous optimum snapped onto
          adjacent discrete modes — a deadline-admitted schedule that
          needs no LP at all, sitting just above the single-mode floor *)
  | Single_mode  (** {!Baselines.best_single_mode} pinned everywhere *)

val pp_rung : Format.formatter -> rung -> unit

(** Why a rung was rejected. *)
type cause =
  | Limit_hit  (** node/time budget exhausted without a usable incumbent *)
  | Worker_crash  (** solver outcome was [Degraded] *)
  | Numeric  (** simplex pivot exhaustion ([Iter_limit]) or LP failure *)
  | Verify_reject
      (** re-simulation missed the deadline, or a degraded answer cost
          more than the single-mode baseline *)

type descent = { rung_failed : rung; cause : cause; detail : string }

val pp_descent : Format.formatter -> descent -> unit

(** Coarse health of a pipeline result, for exit codes and reporting.
    Precedence when several apply: crash > verify > time. *)
type degradation_class =
  | Full  (** optimal MILP schedule, verified — nothing degraded *)
  | Time_degraded
      (** a limit forced a suboptimal (but verified) schedule *)
  | Crash_degraded  (** worker crashes were contained along the way *)
  | Verify_degraded  (** at least one rung was rejected by re-simulation *)
  | Problem_infeasible  (** no deadline-feasible schedule exists *)
  | No_schedule  (** every rung failed *)

val pp_class : Format.formatter -> degradation_class -> unit

type result = {
  categories : Formulation.category list;
  formulation : Formulation.t;
  milp : Dvs_milp.Solver.result;
      (** the accepted MILP attempt's solver result — or, when a lower
          rung answered, the {e first} attempt's (its outcome explains
          why the ladder descended) *)
  predicted_energy : float option;
      (** joules (objective / 1e6); for {!rung.Rounded_lp} this is the LP
          relaxation bound, a lower bound rather than a prediction *)
  schedule : Schedule.t option;
  verification : Verify.report option;  (** against the first category *)
  solve_seconds : float;  (** wall-clock seconds summed over MILP attempts *)
  independent_edges : int;  (** after filtering, incl. the virtual edge *)
  rung : rung option;  (** accepted rung; [None] iff [schedule] is [None] *)
  descents : descent list;  (** rejections on the way down, in order *)
  continuous_bound : float option;
      (** exact continuous-relaxation lower bound on the optimal energy,
          in joules; [None] when the feature is off or the relaxation is
          infeasible *)
}

val classify : result -> degradation_class

type prepared = {
  prep_formulation : Formulation.t;
  prep_independent_edges : int;
}
(** The deterministic model-building prefix of {!optimize_multi}:
    filtering and formulation, no solving.  Exposed so the experiment
    store ([Dvs_store]) can rebuild a cached result's formulation
    without paying for a solve or a simulation. *)

val prepare :
  ?config:Config.t ->
  regulator:Dvs_power.Switch_cost.regulator ->
  Formulation.category list ->
  prepared
(** Apply the config's edge filter and build the MILP formulation for
    [categories] — exactly the model {!optimize_multi} would solve. *)

val optimize_multi :
  ?config:Config.t ->
  ?verify_config:Dvs_machine.Config.t ->
  ?session:Verify.Session.t ->
  regulator:Dvs_power.Switch_cost.regulator ->
  memory:int array ->
  Formulation.category list -> result
(** [memory] is the input used for verification (normally the first
    category's).  [verify_config] overrides the machine used for the
    verification run (default: the first profile's config); pass a config
    carrying [regulator] when sweeping transition costs, so the simulator
    charges the same costs the MILP modeled.  [session] supplies a warm
    {!Verify.Session} for the (machine, program, memory) triple so
    repeated calls share the summary cache.  Without one, the call takes
    over the first profile's own recording when it fits
    ({!Verify.Session.for_profile}), and otherwise records a session on
    first verification ([Config.t.cold_verify] makes it cycle-accurate).
    Either way the first profile's recording slot is empty afterwards,
    and a volatile [pipeline.session] trace event names the session's
    [source].  Successive rung verifications within one call are
    incremental against each other. *)

val optimize :
  ?config:Config.t ->
  Dvs_machine.Config.t -> Dvs_ir.Cfg.t -> memory:int array ->
  deadline:float -> result
(** Single input category: profiles, then runs {!optimize_multi} with the
    config's regulator. *)

type sweep_result = {
  results : result array;  (** one per input deadline, in input order *)
  sweep : Dvs_milp.Sweep.stats;
}

val optimize_sweep :
  ?config:Config.t ->
  ?verify_config:Dvs_machine.Config.t ->
  ?profile:Dvs_profile.Profile.t ->
  ?session:Verify.Session.t ->
  Dvs_machine.Config.t -> Dvs_ir.Cfg.t -> memory:int array ->
  deadlines:float array -> sweep_result
(** [optimize_sweep machine cfg ~memory ~deadlines] runs the paper's
    deadline-sweep experiment through {!Dvs_milp.Sweep}: the program is
    profiled ([profile] supplies a pre-collected profile and skips that
    step) and formulated {e once} (at the loosest deadline, so the
    deadline-implied mode exclusions baked into the model stay exact
    everywhere), and each sweep point is an RHS delta on the shared
    model — with tightest-first incumbent lifting and continuous-bound
    pruning.  Per-point implied fixings are recomputed at each deadline
    via [Sweep.run]'s [per_point] hook.

    A point whose sweep solve comes back [Optimal] and verifies against
    its own deadline is accepted at the {!rung.Milp} rung; [Infeasible]
    and [Unbounded] points are terminal (no schedule), and anything else
    falls back to the classic {!optimize_multi} degradation ladder for
    that point alone.  The sweep solves one point at a time, and every
    solve branches as {!Dvs_milp.Solver} always does.

    All per-point verifications run through one shared {!Verify.Session}:
    [session] if given, otherwise the profile's own recording when it
    fits ({!Verify.Session.for_profile}), otherwise one recorded here
    (cycle-accurate when [Config.t.cold_verify]).  A freshly collected
    profile therefore makes the whole sweep cost one recorded
    simulation, the profiling one.  The profile's recording slot is
    empty afterwards, and a volatile [pipeline.session] trace event
    names the session's [source].  Within each verification worker,
    consecutive points re-verify incrementally against each other.

    Raises [Invalid_argument] if [deadlines] is empty or contains a
    non-positive or non-finite value. *)
