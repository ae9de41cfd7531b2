(** The [dvsd] service core, socket-free: a warm model store, a bounded
    admission queue, a pool of worker domains, per-request wall-clock
    budgets mapped onto the degradation ladder, near-duplicate batching,
    and an idempotent reply cache.  {!Daemon} puts a Unix-socket front
    end on it; tests and the bench harness drive it in-process.

    {b Admission control.}  The queue is bounded ([Config.queue_depth]):
    a submit against a full queue returns a typed
    {!Protocol.reply_body.Rejected_overloaded} immediately instead of
    buffering without bound — under overload the daemon sheds load and
    stays responsive rather than building unbounded latency.

    {b Budgets.}  Every request carries a wall-clock budget (server
    default when absent).  Time spent queueing is charged against it: at
    dequeue the remaining budget picks the ladder entry
    ({!Dvs_core.Pipeline.Resilience.for_budget}) and bounds the MILP
    solver's [time_limit], so a request that waited long sheds work to
    cheaper rungs instead of blowing its deadline; a request whose
    budget drained entirely gets a typed
    {!Protocol.reply_body.Rejected_budget} without a solve.

    {b Batching.}  Chaos-free optimize requests for the same (workload,
    input) whose deadline fractions sit within 0.05 of each other and
    that share a ladder entry are drained together (at most
    [Config.batch_max]) and solved as one
    {!Dvs_core.Pipeline.optimize_sweep} over their distinct deadlines,
    each on one MILP worker domain, then demuxed per caller.

    {b Crash containment.}  Request processing runs under a per-batch
    exception guard: a poisoned request (or an injected chaos poison)
    produces a typed [Failed_reply] for that batch only; the worker
    domain survives and keeps serving.

    {b Idempotency.}  Final replies are cached by request id (FIFO,
    bounded at 1024): a retry of an already-served id returns the cached reply; a
    resubmit of an in-flight id attaches to the in-flight computation.
    [Overloaded] rejections are never cached.

    {b Determinism.}  Chaos faults are a pure function of
    [(chaos seed, request id)], and each request (at [batch_max = 1])
    is an independent deterministic pipeline run, so an identical
    seeded replay classifies every request the same at any worker
    count — held by the service test suite at workers=1 vs 4. *)

module Config : sig
  type t = {
    workers : int;  (** worker domains; default 2 *)
    queue_depth : int;  (** admission-queue bound; default 64 *)
    default_budget_s : float;
        (** budget for requests that carry none; default 2.0 *)
    batch_max : int;  (** max requests per batch; 1 disables; default 8 *)
    max_nodes : int;  (** MILP node budget per solve; default 4000 *)
    capacitance : float;  (** regulator capacitance; default 0.4e-6 *)
    levels : int option;
        (** evenly spaced voltage levels instead of XScale-3 *)
    store_root : string option;
        (** experiment-store root: warm-model profiling consults the
            content-addressed store there, so a restarted daemon
            rehydrates its models from disk instead of re-simulating;
            [None] (the default) profiles live *)
    obs : Dvs_obs.t;
        (** service metrics report here; an enabled private registry is
            created when this is {!Dvs_obs.disabled} *)
  }

  val make :
    ?workers:int -> ?queue_depth:int -> ?default_budget_s:float ->
    ?batch_max:int -> ?max_nodes:int -> ?capacitance:float ->
    ?levels:int -> ?store_root:string -> ?obs:Dvs_obs.t -> unit -> t
  (** Raises [Invalid_argument] on non-positive [workers], [queue_depth],
      [batch_max] or [default_budget_s]. *)

  val default : t
end

type t

val create : Config.t -> t
(** Starts the worker domains. *)

val obs : t -> Dvs_obs.t
(** The (always enabled) metrics registry the service reports into. *)

val warm : t -> (string * string option) list -> unit
(** Pre-build warm state (compile, profile, verification session) for
    the given (workload, input) pairs, so the first real request does
    not pay for it.  The session takes over the profile's own recording
    when profiling ran in this process, and records afresh after a store
    hit; the volatile counter [service.model_session.<source>] counts
    each ({!Dvs_core.Verify.Session.source_name}).  Unknown names raise
    [Not_found]. *)

type handle

val submit : t -> Protocol.request -> handle
(** Never blocks on solver work: control requests ([Ping]/[Stats]/
    [Shutdown]) and rejections resolve immediately; accepted work
    resolves when a worker completes it.  [Shutdown] flips the engine
    into draining mode — queued work still completes, later work is
    refused. *)

val await : handle -> Protocol.reply
(** Blocks until the reply is available. *)

val queue_len : t -> int

val draining : t -> bool

val stop : t -> unit
(** Drain the queue, reply to everything still in flight, and join the
    worker domains.  Idempotent. *)

val metrics_snapshot :
  ?meta:(string * Dvs_obs.Json.t) list -> t -> Dvs_obs.Json.t
(** [dvs-metrics/v1] snapshot of {!obs}. *)
