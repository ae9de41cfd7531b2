(** The documented export schemas and their validators.

    Three artifact kinds, all versioned under a ["schema"] tag:

    - {b [dvs-metrics/v1]} — a {!Metrics.snapshot}: top-level keys
      [schema], [meta], [wall], [counters], [gauges], [histograms];
      every counter has an integer [total], a [per_slot] object and a
      [stability] of ["stable"] or ["volatile"]; gauges have [value];
      histograms have [count], [sum] and [buckets].
    - {b [dvs-trace/v1]} — one JSONL line per {!Trace.entry}: keys [ts]
      (number), [kind] (["span"] or ["event"]), [name], [slot] (int),
      [stability], [dur] (required iff [kind = "span"]), [attrs]
      (object).
    - {b [dvs-bench/v2]} — the [BENCH_milp.json] summary written by
      [bench --emit-bench]: solve/throughput totals derived from the
      solver's metric names ([bb_nodes] is the branch-and-bound node
      total), the experiment ids that ran, per-experiment wall times
      under [experiment_wall_seconds], and the full metrics snapshot
      under [metrics].  v2 renamed v1's [nodes] to [bb_nodes] and added
      [experiment_wall_seconds].

    - {b [dvs-service/v1]} — a [dvstool loadgen] leg report: [leg],
      [requests], per-class reply counts under [classes], a
      [latency_ms] object ([mean]/[p50]/[p90]/[p99]), [shed_rate],
      [batched_fraction], [retries], [savings_pct_mean] (null when no
      request was scheduled) and [wall_seconds].

    - {b [dvs-store/v1]} — one experiment-store entry ([Dvs_store]):
      keys [schema], [key] (the full canonical cache key), [kind]
      (["sim"], ["solve"] or ["sweep"]), [epoch] (int), [checksum]
      (FNV-1a of the rendered payload) and [payload] (object).

    Validators check structure, not values: required keys, value kinds,
    and the enumerated strings.  All validators are permissive about
    extra keys, so optional additions (e.g. the bench summary's
    [service] section) need no version bump. *)

val validate_metrics : Json.t -> (unit, string) result

val validate_trace_line : Json.t -> (unit, string) result

val validate_bench : Json.t -> (unit, string) result

val validate_service : Json.t -> (unit, string) result

val validate_store : Json.t -> (unit, string) result

val bench_summary :
  ?experiment_walls:(string * float) list ->
  metrics:Metrics.t -> experiments:string list -> wall_seconds:float ->
  unit -> Json.t
(** Builds a [dvs-bench/v2] document from the registry the solver
    reported into: totals of the [solver.nodes] (as [bb_nodes]),
    [solver.lp_solves], [solver.lp_pivots], [lp.flops] (as [lp_flops]:
    linear-algebra operations per entry actually touched, the number the
    sparse-LU basis exists to shrink), [solver.solves] and
    [lp_cache.*] counters, the [solver.solve_seconds] histogram's sum as
    aggregate solve time, and derived [nodes_per_second] /
    [lp_solves_per_second] throughput (0 when no solve time was
    recorded).  [experiment_walls] (default empty) records each
    experiment's own wall time under [experiment_wall_seconds].

    The [store] section totals the experiment store's volatile
    [store.*] counters (hits and misses per artifact kind, plus
    stale/corrupt/eviction counts) — all zero when no store was
    active.  The [lu] section totals the sparse-LU basis's [lu.*]
    counters (refactorizations, fill-in, eta-file growth, scatter
    sparsity hits). *)
