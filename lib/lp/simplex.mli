(** Sparse revised simplex over a {!Compiled} model.

    The kernel is a bounded-variable revised simplex: every model
    variable keeps its own [lb, ub] range (branch-and-bound branch
    decisions are bound changes, which here cost a bound flip or a dual
    reoptimization, never a new row), and all per-iteration state lives
    in a caller-reusable {!workspace} so the pivot loop allocates nothing
    beyond the basis representation's update storage.

    The kernel is a functor over the basis representation ({!Make},
    {!Basis.S}): the basis module factors the basis columns, solves
    against them and absorbs one column exchange per pivot, while the
    kernel makes every pricing, ratio-test and phase decision.  This
    module is [Make (Lu_eta)] — a sparse LU factorization (Markowitz
    ordering, threshold partial pivoting, see {!Lu.factor}) plus a
    product-form eta file, refactorized when the eta file outgrows the
    factorization.  A solve finishes on the factor the pivot loop
    already holds (one FTRAN recomputes the basic values; no dense
    solve), so the workspace holds no [m]x[m] array.  That finish
    checks the rows: when max_i |(B x_B - (b - N x_N))_i| / (1 + |b_i|)
    exceeds [1e-9] it refactors and recomputes x_B once
    ({!stats.residual_refactors}); a basis that proves singular then is
    treated like any numerically hopeless state.  The test suite checks
    this instance against an explicit dense inverse.

    Pricing is devex-style steepest edge, falling back to Bland's rule
    after 200 stalled (degenerate) iterations, so cycling cannot happen
    silently.  Reduced costs come from one BTRAN after every
    refactorization and before any phase is declared optimal; between
    those, each primal and dual pivot updates them along the pivot row
    it has already computed ([d_j -= theta alpha_j], [theta = d_e /
    alpha_e]).

    Integrality markers on variables are ignored — this solves the
    relaxation; {!Dvs_milp} adds branch and bound on top.

    Termination trouble is a value, not an exception: hitting the pivot
    budget returns {!Iter_limit} instead of raising [Failure], so callers
    (notably {!Dvs_milp.Solver}) can surface it as a typed outcome.

    Re-solves of nearby models (branch-and-bound children differing from
    the parent by variable bounds only) warm start from the parent's
    {!basis} via {!solve_compiled}: the parent's optimal basis stays
    dual feasible under bound changes, so the warm solve is a
    dual-simplex reoptimization that typically needs a handful of pivots
    instead of a primal restart.  If the hint is unusable (dimension
    mismatch, singular basis, loss of dual feasibility), the kernel
    falls back to a cold solve — the hint can never affect correctness.
    A solve asked to [pin] keeps its final factor in the workspace, and
    a later warm start there from the very basis it returned restores
    that factor instead of factoring ({!stats.lu_restores}).

    Sized for the paper's instances (hundreds of rows/columns), not for
    industrial LPs. *)

type solution = {
  objective : float;
  values : float array;  (** indexed by {!Model.var} *)
}

type partial = {
  phase : int;  (** simplex phase that hit the budget (1 or 2) *)
  iterations : int;  (** pivots performed before stopping *)
}

type status =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Iter_limit of partial
      (** the per-phase pivot budget ran out before optimality was
          proven; no solution is available *)

type basis
(** Opaque snapshot of a simplex basis: the status (basic / at lower /
    at upper / free) of every column plus the basic column of every
    row.  Column layout is stable under bound changes (fixed variables
    keep their column), so a parent's basis applies verbatim to any
    child of the same compiled model — and to any model compiling to
    the same shape. *)

type stats = {
  pivots : int;  (** total basis changes (primal + dual) *)
  dual_pivots : int;  (** pivots spent in dual reoptimization *)
  bound_flips : int;  (** ratio tests resolved without a basis change *)
  bland_pivots : int;  (** pivots taken under the Bland fallback *)
  flops : int;
      (** floating-point work actually performed (2 per entry touched —
          no dense m^2/m^3 formulas), comparable across basis modules *)
  lu_refactorizations : int;
      (** factorizations built by the basis module ({!Basis.counters}) *)
  lu_restores : int;
      (** pinned factors a warm start reused instead of factoring *)
  residual_max : float;
      (** largest scaled row residual
          max_i |(B x_B - (b - N x_N))_i| / (1 + |b_i|) the finish
          measured on the held factor; 0.0 when the solve did not reach
          an optimum *)
  residual_refactors : int;
      (** finishes whose residual exceeded [1e-9] and refactored *)
  lu_fill_in_nnz : int;
      (** total factor entries beyond the basis nnz, summed over
          factorizations *)
  lu_eta_nnz : int;  (** total eta-file entries appended *)
  ftran_sparse_hits : int;
      (** FTRAN solve steps skipped because the running component was
          exactly zero (hypersparsity wins) *)
  btran_sparse_hits : int;  (** same, for BTRAN *)
}

(** The solving entry points, one set per basis representation. *)
module type S = sig
  type workspace
  (** Reusable scratch buffers (pricing vectors, column states, the
      basis module's state).  One per worker thread; grown on demand,
      never shrunk.  Not thread-safe — do not share a workspace across
      domains. *)

  val workspace : unit -> workspace

  val unpin : workspace -> unit
  (** Drop the workspace's pinned factor, if any. *)

  val solve : ?max_iter:int -> Model.t -> status
  (** [max_iter] bounds pivots per phase (default 100000); Bland's rule
      engages after 200 stalled iterations, so running out of budget
      yields {!Iter_limit} rather than silently looping.  Reduced costs
      and (scaled) feasibility are judged to [1e-7]. *)

  val solve_compiled :
    ?max_iter:int ->
    ?basis:basis ->
    ?ws:workspace ->
    ?pin:bool ->
    Compiled.t ->
    status * basis option * stats
  (** The entry point: solve a compiled model under its {e current}
      bounds, returning the optimal basis (when the status is
      [Optimal]) and pivot statistics.  The compiled structure is
      read-only; only [Compiled.set_bounds] state distinguishes calls.
      With [basis], the solve is a dual-simplex reoptimization from that
      basis.  With [ws], all scratch state is reused across calls (the
      intended mode for branch and bound: one workspace per worker).

      [pin] (default [false]) drops the workspace's earlier pin and, on
      an optimum, pins the factor the solve finished on.  Until {!unpin}
      or the next pinning solve, any solve in [ws] whose [basis] is
      physically the basis returned here, on the same constraint matrix
      (bounds may differ), starts from that factor instead of
      factoring. *)
end

module Make (B : Basis.S) : S
(** The kernel over basis representation [B]. *)

include S
(** [Make (Lu_eta)]. *)

val pp_status : Format.formatter -> status -> unit
