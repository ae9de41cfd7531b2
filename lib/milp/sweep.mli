(** Parametric deadline-sweep engine: solve one DVS mode-assignment MILP
    at many deadlines while sharing what the instances have in common.

    The paper's figure-18 experiment re-solves the same model at a grid
    of deadlines; the points differ by the right-hand side of a single
    row.  Each point the engine solves is a copy of the model with its
    deadline row's RHS set, handed to one {!Solver.solve} (which solves
    its root LP once, under the point's own lift, seed and fixings).
    What the points share is their answers:

    - {b Tightest-first ordering with incumbent lifting.}  Points run in
      ascending deadline order.  A schedule feasible at a tight deadline
      stays feasible at every looser one, so each completed point's
      optimum is lifted — as a seeding
      {!Solver.Config.with_warm_solution} — into the next point's
      configuration, giving the branch and bound an incumbent before the
      first LP solve.  A caller-supplied [point_seed] (the rounded
      continuous schedule) replaces the lift as warm fixings whenever
      its known objective strictly beats it — at lax deadlines the
      tight-point lift is a poor incumbent and the rounding is
      near-optimal.
    - {b Dual-bound pre-pruning.}  When the caller supplies
      [point_bound] (e.g. the exact continuous-schedule relaxation of
      {!Dvs_core.Relaxation}) and its bound already certifies the lifted
      incumbent optimal within {!Solver.gap_rel}, the point is answered
      from the lift directly: zero LP solves, zero nodes.  The pruned
      point's solution is the lifted object itself — the bits a full
      solve would return, since a seeded incumbent is only displaced by
      a {e strict} improvement and the certificate rules one out.

    Warm incumbents are feasible by construction, so per-point
    objectives are exactly what independent cold solves produce — the
    sharing only changes how fast the proof closes.  Every LP the sweep
    runs is one of its points' solves, counted by that solve's
    [solver.lp_solves] and [solver.lp_pivots].

    Points run one after another on the calling domain; each point's
    own solve uses [config.jobs] workers.

    Observability (through the config's [obs] bundle, all [Volatile]):
    [sweep.points], [sweep.instances_warm_started],
    [sweep.points_pruned_by_bound]. *)

open Dvs_lp

type point = {
  deadline : float;  (** this point's deadline-row RHS, in model units *)
  result : Solver.result;
  warm_started : bool;
      (** an incumbent was lifted from a completed tighter point *)
  pruned_by_bound : bool;
      (** answered from the lifted incumbent under a certifying
          [point_bound]; the solve was skipped entirely *)
}

type stats = {
  instances_warm_started : int;  (** points that received a lifted incumbent *)
  points_pruned_by_bound : int;
      (** points answered from a lift under a certifying [point_bound] *)
}

type t = {
  points : point array;  (** one per input deadline, in {e input} order *)
  stats : stats;
}

val run :
  ?config:Solver.Config.t ->
  ?per_point:(int -> float -> Solver.Config.t -> Solver.Config.t) ->
  ?point_bound:(int -> float -> float option) ->
  ?point_seed:(int -> float -> ((Model.var * float) list * float) option) ->
  model:Model.t ->
  deadline_row:int ->
  deadlines:float array ->
  unit ->
  t
(** [run ~model ~deadline_row ~deadlines ()] solves [model] once per
    deadline, overriding the RHS of constraint [deadline_row] (an
    insertion-order index, see {!Dvs_lp.Model.constraint_indices}; the
    row must be a [Le] constraint) with each value of [deadlines].

    [config] is the per-point solver configuration (default
    {!Solver.Config.default}); its [cache]/[obs] are shared across
    points.  [per_point i d cfg] customizes the configuration of point
    [i] (input order, deadline [d]) — it runs before incumbent lifting,
    which sets [warm_solution] whenever a tighter point has completed.

    [point_bound i d] returns a proven dual bound on point [i]'s optimum
    (model objective units; [None] when unavailable).  It must be valid
    — for the DVS formulation, the exact continuous relaxation is — and
    is consulted only when a lifted incumbent exists; a certifying bound
    prunes the point as described above.

    [point_seed i d] returns known-feasible warm fixings for point [i]
    plus their exact objective (e.g. the rounded continuous schedule of
    {!Dvs_core.Relaxation.round} at deadline [d]).  On a cold point the
    fixings replace [config.warm_start] as the materialized incumbent;
    on a lifted point they are materialized {e in addition to} the seed
    only when their objective strictly beats the lift beyond the
    {!Solver.gap_rel} slack — so a certifiable point never gains an
    extra solve and pruned/unpruned sweeps stay bit-identical.  When a
    lift exists, the configured [warm_start] fixing itself is dropped:
    a lifted optimum is never worse than a generic feasibility fixing,
    so materializing one cannot improve the incumbent.

    Raises [Invalid_argument] on an empty or non-finite [deadlines], or
    an out-of-range or non-[Le] [deadline_row]. *)
