(** Parametric deadline-sweep engine: solve one DVS mode-assignment MILP
    at many deadlines while sharing everything the instances have in
    common.

    The paper's figure-18 experiment re-solves the same model at a grid
    of deadlines; solved independently, every point pays full price for
    a model that differs from its neighbours by a single right-hand
    side.  This engine compiles the model once and expresses each sweep
    point as an RHS delta on the shared {!Dvs_lp.Compiled} form:

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
      from the lift directly: zero cuts, zero LP solves, zero nodes.
      The pruned point's solution is the lifted object itself — the
      bits a full solve would return, since a seeded incumbent is only
      displaced by a {e strict} improvement and the certificate rules
      one out.
    - {b Cross-instance basis reuse.}  The sweep keeps the optimal
      basis of its previous point's root LP; the next point re-solves
      the same compiled form after {!Dvs_lp.Compiled.set_rhs}, which is
      exactly a dual-simplex reoptimization from that basis.
    - {b A shared deduplicated cut pool.}  Each point runs a bounded
      root cutting loop ({!Cuts.gomory} on the LU tableau of
      {!Dvs_lp.Simplex.tableau}, {!Cuts.covers},
      {!Cuts.gub_covers}); separated cuts land in a {!Cuts.Pool.t}
      tagged with the deadline range they remain valid for, and later
      points re-apply every applicable pooled cut before solving.
      Appended cut rows are priced in dual-simplex-style via
      {!Dvs_lp.Simplex.extend_basis}, not by cold restarts.

    Every cut is a valid inequality for the integer hull at its tagged
    deadlines and warm incumbents are feasible by construction, so
    per-point objectives are exactly what independent cold solves
    produce — the sharing only changes how fast the proof closes.

    Points run one after another on the calling domain; each point's
    own solve uses [config.jobs] workers.

    Observability (through the config's [obs] bundle, all [Volatile]):
    [sweep.points], [sweep.instances_warm_started],
    [sweep.points_pruned_by_bound], [cuts.separated], [cuts.applied],
    [cuts.pool_hits]. *)

open Dvs_lp

type point = {
  deadline : float;  (** this point's deadline-row RHS, in model units *)
  result : Solver.result;
  cuts_applied : int;  (** cut rows appended to this point's model *)
  pool_hits : int;
      (** of those, cuts separated at a {e different} sweep point and
          re-applied here from the pool *)
  warm_started : bool;
      (** an incumbent was lifted from a completed tighter point *)
  root_pivots : int;  (** simplex pivots spent in the root cutting loop *)
  pruned_by_bound : bool;
      (** answered from the lifted incumbent under a certifying
          [point_bound]; the solve was skipped entirely *)
}

type stats = {
  instances_warm_started : int;  (** points that received a lifted incumbent *)
  cuts_separated : int;  (** cuts emitted by the separators, pre-dedup *)
  cuts_applied : int;  (** cut rows appended across all point models *)
  cut_pool_hits : int;  (** applications of cuts born at another point *)
  pool_size : int;  (** deduplicated cuts pooled at the end of the sweep *)
  root_pivots : int;  (** total pivots across all root cutting loops *)
  points_pruned_by_bound : int;
      (** points answered from a lift under a certifying [point_bound] *)
}

type t = {
  points : point array;  (** one per input deadline, in {e input} order *)
  stats : stats;
}

val run :
  ?config:Solver.Config.t ->
  ?cut_rounds:int ->
  ?pool:Cuts.Pool.t ->
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
    {!Solver.Config.default}); its [sos1] groups are both the GUB
    branch entities and the GUB cover separator's input, and its
    [cache]/[obs] are shared across points.
    [cut_rounds] (default 3) bounds the root cutting loop per
    point, each round keeping at most 16 Gomory cuts;
    [cut_rounds = 0] disables the root loop (pooled cuts from
    [pool] are still applied, and no root LP is solved).  The root
    loops' LP solves and tableaux ({!Dvs_lp.Simplex.tableau_flops}) are
    added to the [lp.flops] counter of [config.obs], on top of what each
    point's own solve adds.  [pool] shares a cut pool across
    successive sweeps (default: a private pool per call).  [per_point i
    d cfg] customizes the configuration of point [i] (input order,
    deadline [d]) — it runs before incumbent lifting, which sets
    [warm_solution] whenever a tighter point has completed.

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

    Raises [Invalid_argument] on an empty or non-finite [deadlines], an
    out-of-range or non-[Le] [deadline_row], or [cut_rounds < 0]. *)
