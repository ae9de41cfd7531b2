(** Closed-loop traffic generator for [dvsd]: replay a seeded request
    stream against a live socket at a controlled offered rate and
    report the latency/shedding/savings picture.

    A leg pre-generates its whole request list from the seed (workload
    round-robin, deadline fractions drawn from {!Dvs_workloads.Rng}),
    paces arrivals by a seeded exponential interarrival process at
    [rate_hz], and serves them from a pool of [clients] connections —
    each connection synchronous, so concurrency is bounded and the
    generator applies backpressure like a real caller population.
    [Overloaded] rejections are retried with exponential backoff under
    the same request id ({!Client.request}), so the retry path exercises
    the daemon's idempotent reply cache.

    The same [(name, seed)] pair regenerates the identical request
    stream — including every per-request chaos draw, which the daemon
    derives from [(chaos seed, request id)] — so a chaos leg's outcome
    classification is replayable. *)

type leg = {
  name : string;
  requests : int;
  rate_hz : float;  (** aggregate offered arrival rate *)
  clients : int;  (** connection pool size (default 4) *)
  workloads : (string * string option) list;
      (** (workload, input) round-robin; default [[("adpcm", None)]] *)
  fracs : float list;
      (** deadline fractions drawn uniformly; default [[0.3; 0.5; 0.7]] *)
  budget_s : float option;  (** per-request budget; server default if [None] *)
  chaos : Protocol.chaos option;  (** attach to every request (chaos leg) *)
  seed : int;
  retries : int;
      (** max Overloaded retries per request (default 5), backing off
          from 0.02 s *)
}

val leg :
  ?clients:int -> ?workloads:(string * string option) list ->
  ?fracs:float list -> ?budget_s:float -> ?chaos:Protocol.chaos ->
  ?seed:int -> ?retries:int -> name:string -> requests:int -> rate_hz:float ->
  unit -> leg
(** Raises [Invalid_argument] on a non-positive [requests], [rate_hz]
    or [clients], or an empty [workloads]/[fracs]. *)

type stats = {
  leg_name : string;
  sent : int;
  classes : (Protocol.outcome_class * int) list;
      (** final per-request classification (after retries), every class
          listed (zero counts included), protocol order *)
  mean_ms : float;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;  (** client-observed wall latency incl. backoff *)
  shed_rate : float;
      (** requests still [Overloaded] after retries / sent *)
  retries_used : int;  (** total backoff retries across the leg *)
  batched_fraction : float;  (** served in a batch of >= 2 / sent *)
  savings_mean_pct : float option;
      (** mean reported savings over scheduled replies *)
  wall_s : float;
}

val run : socket:string -> leg -> stats

val class_count : stats -> Protocol.outcome_class -> int

val to_json : stats -> Dvs_obs.Json.t
(** The [dvs-service/v1] report
    ({!Dvs_obs.Schema.validate_service}). *)

val pp : Format.formatter -> stats -> unit
