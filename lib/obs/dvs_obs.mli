(** [dvs_obs]: tracing + metrics for the DVS toolkit.

    One {!t} bundles a {!Metrics} registry and a {!Trace} log and is
    threaded through the three instrumented layers —
    [Dvs_milp.Solver] (branch-and-bound node/steal/cache/fault
    accounting), [Dvs_machine.Cpu] (mode transitions, miss overlap
    windows, stall attribution) and [Dvs_core.Pipeline] (degradation
    ladder timeline).  {!disabled} is the default everywhere and
    short-circuits to nothing: no allocation, no locks, no clock reads
    on hot paths.

    Export: {!Trace.write_jsonl} for the event log ([dvs-trace/v1],
    one JSON object per line) and {!Metrics.snapshot} for a single
    diffable JSON document ([dvs-metrics/v1], stable key order, caller
    metadata embedded).  {!Schema} documents and validates both, plus
    the [dvs-bench/v2] summary the bench harness derives from the same
    registry. *)

module Json = Json
module Metrics = Metrics
module Trace = Trace
module Schema = Schema

type t

val create : ?trace_capacity:int -> unit -> t
(** Metrics and tracing both enabled. *)

val metrics_only : unit -> t
(** Metrics enabled, tracing disabled — for long sweeps (the bench
    harness) where an event log would just saturate its capacity. *)

val disabled : t
(** The shared no-op bundle; the default for every instrumented
    component. *)

val enabled : t -> bool
(** True when metrics or tracing is live.  Instrumented code uses this
    to skip attribute construction on disabled bundles. *)

val metrics : t -> Metrics.t

val trace : t -> Trace.t
