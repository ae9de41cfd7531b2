(** Deterministic, seeded fault injection for the MILP solve pipeline.

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
      it (a seeded Bernoulli draw per lookup);
    - {b clock skew}: {!clock_skew} shifts the wall clock the solver
      compares against [time_limit], simulating timer trouble.

    Triggers are pure functions of the spec and a monotonic ordinal, so
    a spec replays the same fault sequence deterministically at jobs=1,
    and injects the same {e set} of faults at any job count.  Used by
    the fault-injection test suite and the [resilience] bench
    experiment; production solves never construct one. *)

exception Injected_crash of { worker : int; node : int }
(** Raised by {!on_node} inside a worker; contained by {!Solver} like
    any other worker exception. *)

type spec = {
  crash_at_nodes : int list;  (** 1-based node ordinals that crash *)
  crash_every : int option;  (** also crash every Nth node *)
  exhaust_pivots_at : int list;  (** 1-based LP-solve ordinals *)
  exhaust_pivots_every : int option;
  cache_miss_rate : float;  (** probability in [0, 1] per cache lookup *)
  clock_skew : float;  (** seconds added to the solver's wall clock *)
  seed : int;  (** seeds the cache-miss Bernoulli stream *)
}

type t

val make :
  ?crash_at_nodes:int list ->
  ?crash_every:int ->
  ?exhaust_pivots_at:int list ->
  ?exhaust_pivots_every:int ->
  ?cache_miss_rate:float ->
  ?clock_skew:float ->
  ?seed:int ->
  unit -> t
(** All faults default to off.  Raises [Invalid_argument] on a rate
    outside [0, 1], a non-positive period, or a non-positive ordinal. *)

val spec : t -> spec

val reset : t -> unit
(** Zero the ordinals and injection counters so the injector replays the
    same fault sequence on a fresh solve. *)

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

val clock_skew : t -> float

(** {2 Accounting} *)

type injected = { crashes : int; exhaustions : int; forced_misses : int }

val injected : t -> injected
(** Faults actually fired so far. *)

val pp_injected : Format.formatter -> injected -> unit
