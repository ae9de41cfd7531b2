(** Cycle-level in-order core with non-blocking cache misses, clock
    gating, DVS modes, and [V^2]-proportional per-cycle energy — the
    stand-in for the paper's Wattch/SimpleScalar profiling platform.

    Timing model:
    - every instruction charges its compute latency in cycles at the
      current clock; cache hits add the hierarchy's synchronous latency;
    - a load miss charges one issue cycle, then the destination register
      becomes pending until [time + dram_latency] (wall clock); execution
      continues until an instruction {e reads} a pending register, at
      which point the clock gates (time passes, no energy) — this is what
      makes the paper's overlap/dependent split emerge;
    - store misses are fire-and-forget (drained at [Halt]);
    - mode-set events (edge annotations or [Modeset] instructions) charge
      the regulator's transition time and energy, or nothing when the mode
      is unchanged ("silent" mode-sets, Section 4.2).

    Time and energy accumulate {e block-locally} and commit at block
    boundaries and absolute events (stalls, mode transitions, halt).
    The grouping is observable through float non-associativity and is
    deliberately shared with {!Summary}'s tape replayer, which is held
    bit-identical to this simulator by the test suite.

    Architectural state must match {!Dvs_ir.Interp} exactly; tests enforce
    this. *)

type run_stats = {
  time : float;  (** seconds *)
  energy : float;  (** joules *)
  dyn_instrs : int;
  mode_transitions : int;  (** non-silent mode-sets executed *)
  transition_time : float;
  transition_energy : float;
  l1 : Cache.stats;
  l2 : Cache.stats;
  overlap_cycles : int;
      (** compute cycles issued while >= 1 miss was in flight *)
  dependent_cycles : int;  (** compute cycles with no miss in flight *)
  cache_hit_cycles : int;  (** cycles of cache-hit memory operations *)
  miss_busy_time : float;
      (** union of miss-in-flight wall-clock intervals (the measured
          analog of the paper's t_invariant) *)
  stall_time : float;  (** clock-gated waiting *)
  registers : int array;
  memory : int array;
}

exception Out_of_fuel

type governor = {
  gov_interval : float;  (** seconds between decisions *)
  gov_decide : busy_fraction:float -> current_mode:int -> int;
      (** next mode, given the fraction of the last interval the core was
          busy (not clock-gated) *)
}
(** Interval-based {e runtime} DVS policy (Weiser-style / the paper's
    OS-level related work): reconsider the mode every [gov_interval]
    seconds from observed utilization.  Decisions take effect at basic
    block boundaries and pay normal transition costs.  Deadline-unaware
    by construction — which is precisely what the compile-time approach
    is being compared against. *)

type observer =
  Dvs_ir.Cfg.label -> via:Dvs_ir.Cfg.label option -> time:float ->
  energy:float -> unit
(** Fires at each block entry (after any edge mode-set cost), with the
    incoming block in [via]. *)

(** How to run: fuel, schedule hooks, policies and instrumentation,
    gathered into one value (mirrors [Solver.Config]).  Build with
    {!Run_config.make}. *)
module Run_config : sig
  type t = private {
    fuel : int;  (** bound on executed blocks *)
    initial_mode : int option;  (** default: the fastest mode *)
    edge_modes : (Dvs_ir.Cfg.edge -> int option) option;
        (** compile-time DVS decisions attached to edges *)
    governor : governor option;
        (** runtime policy instead — don't combine with [edge_modes] *)
    observer : observer option;
    obs : Dvs_obs.t;  (** default {!Dvs_obs.disabled} *)
    recorder : Tape.recorder option;
        (** record an execution tape for {!Summary}; incompatible with
            [governor] *)
  }

  val make :
    ?fuel:int ->
    ?initial_mode:int ->
    ?edge_modes:(Dvs_ir.Cfg.edge -> int option) ->
    ?governor:governor ->
    ?observer:observer ->
    ?obs:Dvs_obs.t ->
    ?recorder:Tape.recorder ->
    unit -> t
  (** [fuel] defaults to 50 million blocks.  Raises [Invalid_argument]
      when [fuel <= 0]. *)

  val default : t
end

val run : ?rc:Run_config.t -> Config.t -> Dvs_ir.Cfg.t -> memory:int array
  -> run_stats
(** Simulate [g] to [Halt] under [rc] (default {!Run_config.default}).

    [rc.obs] records a [sim.run] span, [sim.mode_transition] and
    [sim.miss_window] trace events, the overlap / dependent / cache-hit
    cycle counters and time / energy / stall gauges.  The simulator is
    single-threaded and reads no wall clock, so everything it emits is
    marked stable.

    Raises {!Out_of_fuel} when the block budget runs out, and
    [Invalid_argument] when a recorder is combined with a governor (a
    tape must stay schedule-independent). *)
