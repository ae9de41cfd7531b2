(** Metrics registry: named counters, gauges and histograms with a
    deterministic JSON snapshot.

    {b Hot-path cost.} Counters are the only instrument meant for hot
    paths: each counter owns a fixed array of per-slot atomic cells (one
    slot per worker domain), so increments are lock-free, contention-free
    when every domain sticks to its own slot, and allocation-free.
    Aggregation across slots happens only at snapshot time — the
    solve-merge pattern.  Gauges and histograms take a (rarely contended)
    mutex and are intended for end-of-run aggregation, not per-node work.

    {b Disabled registries.} {!disabled} hands out shared no-op
    instruments whose operations test one boolean and return — no
    allocation, no synchronization — so instrumented code needs no
    [if enabled] guards around bare counter bumps.  (Guards are still
    worthwhile where building {e attributes} would allocate.)

    {b Stability.} Every instrument declares whether its value is a
    deterministic function of the inputs ([`Stable]) or depends on wall
    clock / worker interleaving ([`Volatile]).  Snapshots carry the
    class, so runs can be diffed on the stable subset — see
    {!stable_subset}. *)

type t

type stability = Stable | Volatile

val create : unit -> t
(** An enabled registry.  Each counter attributes 64 slots; higher slot
    indices fold onto [slot mod 64]. *)

val disabled : t
(** The shared no-op registry. *)

val enabled : t -> bool

module Counter : sig
  type t

  val incr : t -> slot:int -> unit

  val add : t -> slot:int -> int -> unit

  val value : t -> int
  (** Sum over all slots. *)

  val per_slot : t -> (int * int) list
  (** [(slot, count)] for slots with a nonzero count, slot-ordered. *)
end

module Gauge : sig
  type t

  val set : t -> float -> unit

  val value : t -> float
  (** [nan] until first set. *)

  val max : t -> float -> unit
  (** [max g x] sets [g] to [x] when [x] is larger or [g] is unset: the
      largest value reported so far, by any number of domains. *)
end

module Histogram : sig
  type t

  val observe : t -> float -> unit
  (** Negative and non-finite observations count toward [count]/[sum]
      bookkeeping but land in the underflow bucket. *)

  val count : t -> int

  val sum : t -> float
end

val counter : t -> ?stability:stability -> string -> Counter.t
(** Find-or-register; the first registration fixes the stability class.
    On {!disabled} returns the shared no-op instrument.  Instruments of
    different kinds under one name raise [Invalid_argument]. *)

val gauge : t -> ?stability:stability -> string -> Gauge.t

val histogram : t -> ?stability:stability -> string -> Histogram.t

val snapshot : ?meta:(string * Json.t) list -> t -> Json.t
(** Deterministic snapshot: instruments sorted by name within their
    kind, stable key order throughout.  [meta] (seeds, config, workload
    identity…) is embedded under ["meta"], sorted by key.  Wall-clock
    context lives under the ["wall"] key only, so it can be stripped for
    diffing.  Schema: see {!Schema.validate_metrics}. *)

val stable_subset : Json.t -> Json.t
(** Project a snapshot onto its deterministic part: drops the ["wall"]
    section, every instrument marked volatile, and per-slot counter
    breakdowns (slot attribution depends on worker scheduling). *)
