(** MILP-safe presolve: shrink a {!Model} before compiling it, with a
    postsolve map that recovers full solutions.

    Reductions applied (to a fixpoint, bounded rounds):
    - {b fixed-variable substitution}: variables with [lb = ub] leave
      the matrix; their contribution folds into row rhs and the
      objective constant.
    - {b singleton rows}: a one-variable row becomes a bound and is
      dropped.
    - {b bound tightening}: activity-based implied bounds, rounded
      inward for integer variables (which is what fixes binaries).
      Continuous bounds are only tightened through exact singleton
      rows, never through accumulated activity arithmetic, so the
      reduced LP optimum matches the original bit-for-bit modulo
      rounding noise well under 1e-9.
    - {b redundant rows}: rows satisfied by every point of the bound
      box are dropped.
    - {b GUB-implied fixings}: given one-of-a-group constraints
      ([groups], e.g. the per-edge mode selectors from
      [Dvs_core.Formulation]), a binary whose selection alone overruns
      a [<=] row given the other groups' best cases is fixed to 0, and
      group membership is propagated (one member at 1 zeroes the rest;
      all-but-one at 0 forces the survivor).
    - {b free column singletons}: a continuous, fully free variable
      appearing in exactly one equality row is substituted out together
      with the row.

    Every reduction is exact for the MILP (never cuts an integer
    optimum), so solving the reduced model and applying {!postsolve}
    yields an optimal solution of the original with the same objective
    value. *)

type t

val presolve :
  ?fixings:(Model.var * float) list ->
  ?groups:Model.var list list ->
  Model.t ->
  t
(** [fixings] are externally implied variable fixings (e.g. from the
    edge filter) applied as bounds before the first round.  [groups]
    are one-of-these sets of binaries ([sum = 1] is expected to hold as
    a model row).  The fixpoint loop runs at most 10 rounds.  The input
    model is not modified. *)

val infeasible : t -> bool
(** The reductions proved the model infeasible (no reduced model is
    worth solving; {!reduced} returns a trivially infeasible stub). *)

val reduced : t -> Model.t
(** The reduced model.  Variable indices are renumbered densely;
    {!var_map} translates. *)

val var_map : t -> int array
(** Original variable index -> reduced index, or [-1] if eliminated. *)

val rows_removed : t -> int

val cols_removed : t -> int

val postsolve : t -> float array -> float array
(** [postsolve t values] lifts a solution of {!reduced} (indexed by
    reduced vars) back to the original variable space, replaying
    eliminations in reverse order.  The objective value is unchanged:
    eliminated contributions were folded into the reduced objective. *)

val pp_summary : Format.formatter -> t -> unit
