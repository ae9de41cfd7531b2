(** Deterministic fault injection for the MILP solve pipeline.

    Attach an injector to a solve via
    {!Solver.Config.with_fault} and it will fire faults at the solver's
    failure-prone seams:

    - {b worker crashes}: {!on_node} raises {!Injected_crash} when the
      Nth node (a global, atomically assigned ordinal) is processed —
      exercising the solver's crash containment;
    - {b pivot exhaustion}: {!pivot_budget} forces the Nth LP solve to
      run with a one-pivot budget, driving the genuine
      {!Dvs_lp.Simplex.Iter_limit} error path;
    - {b cache misses}: {!force_cache_miss} makes a root or [warm_start]
      seed solve, the only solves that consult the {!Lp_cache}, bypass
      it (a hashed Bernoulli draw per lookup).

    Triggers are pure functions of the settings and a monotonic ordinal,
    so an injector replays the same fault sequence deterministically at
    jobs=1, and injects the same {e set} of faults at any job count.  Used by
    the fault-injection test suite and the [resilience] bench
    experiment; production solves never construct one. *)

exception Injected_crash of { worker : int; node : int }
(** Raised by {!on_node} inside a worker; contained by {!Solver} like
    any other worker exception. *)

type t

val make :
  ?crash_at_nodes:int list ->
  ?crash_every:int ->
  ?exhaust_pivots_every:int ->
  ?cache_miss_rate:float ->
  unit -> t
(** [crash_at_nodes] lists 1-based node ordinals that crash,
    [crash_every] also crashes every Nth node, [exhaust_pivots_every]
    exhausts every Nth LP solve and [cache_miss_rate] is the miss
    probability per cache lookup.  All faults default to off.  Raises
    [Invalid_argument] on a rate outside [0, 1], a non-positive period,
    or a non-positive ordinal. *)

(** {2 Hooks} — called by {!Solver}; counters advance on every call. *)

val on_node : t -> worker:int -> unit
(** Raises {!Injected_crash} when the crash trigger fires for this node
    ordinal. *)

val pivot_budget : t -> int * int option
(** [(ordinal, budget)]: [budget] is [Some 1] when the exhaustion
    trigger fires for this LP-solve ordinal; the solver passes it to
    [Simplex.solve_compiled] as [max_iter].  The ordinal identifies the
    firing in exported traces — the {e set} of firing ordinals is a pure
    function of the spec, independent of worker count. *)

val force_cache_miss : t -> int * bool
(** [(ordinal, miss)]; [ordinal] is 0 when the rate is 0 (the injector
    is not consulted and no ordinal is consumed). *)

(** {2 Accounting} *)

type injected = { crashes : int; exhaustions : int; forced_misses : int }

val injected : t -> injected
(** Faults actually fired so far. *)
