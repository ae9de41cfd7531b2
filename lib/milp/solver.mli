(** Parallel, warm-started branch and bound over the {!Dvs_lp.Simplex}
    relaxation — the single MILP entry point used by the DVS pipeline,
    the CLI and the experiment harness.

    The search runs on a pool of OCaml 5 domains ([Config.jobs] of them,
    defaulting to [Domain.recommended_domain_count ()]).  Each worker
    owns a best-bound {!Work_queue} of open nodes and steals from its
    peers when idle; every node below the root warm starts its LP
    relaxation from the parent's optimal basis
    ({!Dvs_lp.Simplex.solve_compiled}); and the basis-free solves, the
    root and the [warm_start] seed, are memoized in an {!Lp_cache} that
    callers can share across solves of near-identical models.

    {b Branching.} There is one rule.  Each SOS1 group in
    [Config.sos1] is one branch entity (a GUB dichotomy that splits the
    group's fractional mass), and so is each integer variable outside
    every group (floor/ceil).  Entities are scored by pseudocosts with
    reliability initialization: an entity with fewer than 4
    observations per direction is probed with child LPs capped at 100
    pivots first.  A probe that proves its side infeasible, or that the
    cap stops, scores that side as strong: from a warm basis the dual
    simplex can need the whole cap on a side it would prove infeasible
    from scratch.  When no entity is fractional, the most fractional
    integer variable is branched on.  Every fractional node first runs
    a rounding heuristic from its own basis, and is fathomed if that
    incumbent closes its gap.

    {b Determinism.} The reported objective is reproducible regardless of
    worker count: fathoming only ever discards subtrees whose bound is
    within {!gap_rel} slack of an incumbent (so nothing meaningfully
    better than the final incumbent is lost), incumbent merging is
    tie-broken by the lexicographically smallest branch path, and only
    basis-free solves are cached, so a cache entry is a pure function of
    its (fingerprint, fixings) key whatever path or worker solved it
    first.  Every incumbent has its integers snapped exactly, every
    value clamped into the model's bounds, and its objective evaluated
    at that point, so no returned value lies outside its bounds and a
    schedule's objective depends on the LP that found it only through
    continuous values strictly inside their bounds.

    {b Fault tolerance.} A worker exception never aborts the solve: the
    crash is contained to the node being processed (only that subtree is
    lost), the pool drains normally, and the result carries a
    {!outcome.Degraded} outcome recording every contained crash together
    with the best incumbent found.  A {!Fault} injector can be attached
    ([Config.with_fault]) to force crashes, pivot exhaustion and cache
    misses deterministically in tests.

    This replaces the paper's CPLEX: the DVS MILPs it targets have a few
    hundred binaries (after edge filtering) with a one-mode-per-edge SOS1
    structure whose LP relaxations are close to integral. *)

(** Builder-style solver configuration; construct with {!Config.make} and
    refine with the [with_*] combinators. *)
module Config : sig
  type t = {
    jobs : int;  (** worker domains; default [Domain.recommended_domain_count ()] *)
    max_nodes : int;  (** node budget; default 200_000 *)
    time_limit : float option;  (** wall-clock seconds *)
    sos1 : Dvs_lp.Model.var list list;
        (** groups whose binaries sum to 1; guides the rounding heuristic
            (the one-mode-per-edge structure of the DVS formulation) *)
    warm_start : (Dvs_lp.Model.var * float) list;
        (** variable fixings known to admit a feasible completion, solved
            once to seed the incumbent (e.g. every edge at the fastest
            mode) *)
    warm_solution : Dvs_lp.Simplex.solution option;
        (** a complete known-feasible integral solution, in the original
            variable space; seeds the incumbent objective without any LP
            solve and is returned verbatim unless the search strictly
            beats it *)
    root_bound : float option;
        (** caller-proven dual bound on the optimum (e.g. the continuous
            relaxation); replaces the infinite root bound, so a
            within-gap [warm_solution] fathoms the whole tree at zero
            nodes *)
    cache : Lp_cache.t option;
        (** share an LP-relaxation cache across solves; a private one is
            created per solve when absent.  Only basis-free solves consult
            it: the root relaxation and the [warm_start] seed *)
    fault : Fault.t option;
        (** fault injector (tests and the resilience bench); [None] in
            production solves *)
    obs : Dvs_obs.t;
        (** observability bundle the solve reports into; defaults to
            {!Dvs_obs.disabled}, whose hot-path cost is one boolean test *)
    presolve : bool;
        (** run the MILP-safe {!Dvs_lp.Presolve} reductions before
            compiling; default [true].  Solutions are postsolved back to
            the original variable space, so results are indistinguishable
            except faster. *)
    fixings : (Dvs_lp.Model.var * float) list;
        (** externally implied variable fixings (e.g.
            [Dvs_core.Formulation.implied_fixings] from the edge filter),
            fed to presolve as exact bounds before the first round *)
  }

  val make :
    ?jobs:int -> ?max_nodes:int -> ?time_limit:float ->
    ?cache:Lp_cache.t -> ?fault:Fault.t -> ?obs:Dvs_obs.t ->
    ?presolve:bool -> unit -> t
  (** Raises [Invalid_argument] if [jobs < 1]. *)

  val default : t
  (** [make ()]. *)

  val with_sos1 : Dvs_lp.Model.var list list -> t -> t

  val with_warm_start : (Dvs_lp.Model.var * float) list -> t -> t

  val with_warm_solution : Dvs_lp.Simplex.solution -> t -> t

  val with_root_bound : float -> t -> t
  (** Raises [Invalid_argument] when the bound is not finite. *)

  val with_fixings : (Dvs_lp.Model.var * float) list -> t -> t

  val with_fault : Fault.t -> t -> t

  val with_obs : Dvs_obs.t -> t -> t
end

val gap_rel : float
(** Relative optimality gap the search stops at ([1e-9]): a node whose
    bound is within [gap_rel * max 1 |incumbent|] of the incumbent is
    fathomed.  Open nodes are explored best bound first; integrality is
    judged to [1e-6]. *)

type stop_reason =
  | Node_limit
  | Time_limit
  | Iter_limit  (** the simplex pivot budget ran out inside a relaxation *)

type crash = {
  worker : int;  (** worker id that contained the exception *)
  depth : int;  (** depth of the node being processed *)
  path : int list;  (** its branch path (innermost decision first) *)
  message : string;  (** [Printexc.to_string] of the exception *)
}

type degradation = {
  crashes : crash list;  (** contained worker crashes, oldest first *)
  stopped : stop_reason option;  (** a limit additionally hit, if any *)
}

type outcome =
  | Optimal  (** proven within the gap *)
  | Feasible of stop_reason
      (** incumbent found, but a limit stopped the proof *)
  | Infeasible
  | Unbounded
  | No_solution of stop_reason  (** limits hit before any incumbent *)
  | Degraded of degradation
      (** worker exceptions were contained: only the crashed nodes'
          subtrees were lost, the rest of the search completed, and the
          best incumbent (if any) is in {!result.solution}.  Optimality
          cannot be claimed; {!result.bound} still covers the lost
          subtrees via the crashed nodes' parent-relaxation bounds. *)

type stats = {
  nodes : int;  (** nodes explored *)
  lp_solves : int;  (** LP relaxations solved (including heuristics) *)
  lp_pivots : int;  (** total simplex pivots across those solves *)
  cache_hits : int;  (** relaxations answered from the {!Lp_cache} *)
  cache_misses : int;
  cache_evictions : int;  (** LRU evictions during this solve *)
  steals : int;  (** nodes taken from another worker's queue *)
  wall_seconds : float;
  cpu_seconds : float;  (** process CPU time, summed over all domains *)
  workers : int;
  worker_nodes : int array;  (** nodes processed per worker *)
}

val worker_utilization : stats -> float
(** Load balance in [0, 1]: mean worker node count over the maximum
    (1.0 = perfectly even; 1.0 by convention when no nodes ran). *)

type result = {
  outcome : outcome;
  solution : Dvs_lp.Simplex.solution option;
  bound : float;  (** best proven bound on the optimum *)
  stats : stats;
}

val solve : ?config:Config.t -> Dvs_lp.Model.t -> result
(** Integrality markers on the model's variables are enforced; everything
    else is as in the LP.  Works for both senses.  The base model is not
    mutated and may be reused across calls. *)

val pp_stop_reason : Format.formatter -> stop_reason -> unit

val pp_outcome : Format.formatter -> outcome -> unit

val pp_stats : Format.formatter -> stats -> unit
