(** Block-cost summarization: replay a recorded {!Tape} under candidate
    DVS schedules instead of re-interpreting every dynamic instruction.

    A session records one cycle-accurate {!Cpu.run} of a workload
    [(Config.t, Cfg.t, memory)] and then re-costs any schedule by
    walking the tape.  Three tiers, fastest first:

    - {b summary hit}: the dynamic block's variant has no miss and no
      [Modeset] op, and no miss is in flight at entry ([busy_end <=
      time]).  Then no stall can occur inside the block — every pending
      completion already lies in the past and stays there — so the
      block's time/energy delta is a function of (variant, entry mode)
      only, memoized per [(variant, mode)] and applied as one addition.
    - {b op replay}: otherwise the variant's op stream is re-executed
      arithmetically (stalls, miss windows, transition costs), which
      costs a handful of float ops per recorded event rather than a full
      instruction dispatch.
    - {b splice} ({!replay_incremental}): when the schedule differs from
      an already-replayed baseline on few edges, resume from the last
      checkpoint before the first position that could diverge and reuse
      the shared prefix outright.

    {b Exactness.}  All three tiers accumulate time and energy
    block-locally from 0.0 and commit at the same points as {!Cpu.run}
    (which shares the grouping for exactly this reason), so replayed
    [run_stats] are {e bit-identical} to the cycle-accurate simulator on
    every equality-gated field — enforced by the test suite, including
    across incremental splices.  Architectural results (registers,
    memory, cache stats, instruction counts) are schedule-independent
    (Assumption 1) and come from the recording run.

    Sessions are safe to share across domains: summary slots are atomic
    (a lost race recomputes the same value) and the baseline store is
    lock-protected. *)

type t
(** A summarization session: recorded tape + summary cache + baseline
    store for incremental replay. *)

val create :
  ?fuel:int ->
  ?obs:Dvs_obs.t ->
  Config.t -> Dvs_ir.Cfg.t -> memory:int array -> t
(** Record the workload once with a cycle-accurate, tape-recording
    {!Cpu.run} under the default schedule (fastest mode, no edge
    mode-sets).  [obs] instruments only this recording run (default
    {!Dvs_obs.disabled}).  Raises whatever {!Cpu.run} raises
    ({!Cpu.Out_of_fuel}, address errors). *)

val tape : t -> Tape.t
(** The recorded execution. *)

val n_edges : t -> int
(** Length expected of {!replay}'s [edge_mode] array (the CFG's edge
    count, {!Dvs_ir.Cfg.edges} order). *)

val positions : t -> int
(** Dynamic blocks on the recorded tape. *)

type result = {
  stats : Cpu.run_stats;
  token : int;
      (** names this replay's cached baseline; pass to
          {!replay_incremental}'s [against].  Tokens are positive and
          unique per session. *)
}

val replay :
  ?obs:Dvs_obs.t -> t -> entry_mode:int -> edge_mode:int option array ->
  result
(** Re-cost the recorded execution under a schedule: [entry_mode] is the
    mode at program start, [edge_mode.(i)] an optional mode-set on CFG
    edge [i] (applied on every traversal, silent when unchanged — same
    semantics as {!Cpu.Run_config.t}'s [edge_modes]).

    [obs] (default {!Dvs_obs.disabled}) gets the same stable [sim.*]
    span, events, counters and gauges as a cycle-accurate run, plus
    volatile [sim.blocks_replayed], [sim.summary_hits],
    [sim.summary_misses] and [sim.spliced_segments] counters (volatile
    because hit/miss split depends on cache warm-up order across
    domains; totals of the stable instruments are exact).

    Raises [Invalid_argument] when [edge_mode] has the wrong length or a
    mode index is out of range. *)

val replay_incremental :
  ?obs:Dvs_obs.t -> t -> against:int -> entry_mode:int ->
  edge_mode:int option array -> result
(** Like {!replay}, but splice against the baseline cached under token
    [against]: positions before the first traversal of a differing edge
    (or position 0 when [entry_mode] differs) are reused from the
    baseline's checkpoints rather than replayed.  The result is
    bit-identical to {!replay} of the same schedule.  Falls back to a
    full replay when the baseline has been evicted (the store keeps the
    most recently used handful). *)

val replay_pinned :
  t -> mode:int -> time:float array -> energy:float array -> Cpu.run_stats
(** Re-cost the recorded execution pinned at [mode] (entry mode [mode],
    no edge mode-sets; [Modeset] instructions still apply) and attribute
    its cost per block: each dynamic block adds the time and energy from
    its entry to the next block's entry — the last block also the final
    drain of memory traffic — into [time.(label)] and [energy.(label)].
    The stats and every per-block sum are bit-identical to a
    cycle-accurate {!Cpu.run} at [initial_mode = mode] that accumulates
    the same differences from its block-entry observer in the same
    order.  Leaves no baseline behind (no token).

    Raises [Invalid_argument] when the arrays do not have one slot per
    static block or [mode] is out of range. *)
