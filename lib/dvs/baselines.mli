(** Comparison points for the MILP schedules.

    - {!best_single_mode}: the best static (inter-program) setting — the
      denominator of every savings ratio the paper reports;
    - {!hsu_kremer}: a reimplementation of the Hsu-Kremer-style heuristic
      the paper cites as prior art — slow down the most memory-bound
      regions first, greedily, while the deadline still holds. *)

val best_single_mode :
  Dvs_profile.Profile.t -> deadline:float -> (int * float) option
(** [(mode, energy_joules)] of the cheapest pinned mode meeting the
    deadline; [None] when even the fastest misses it. *)

val hsu_kremer :
  ?fuel:int ->
  Dvs_machine.Config.t -> Dvs_ir.Cfg.t -> memory:int array ->
  profile:Dvs_profile.Profile.t -> deadline:float -> Schedule.t option
(** Greedy heuristic: blocks ranked by memory-boundedness (how little
    their profiled time dilates between the fastest and slowest modes);
    most-memory-bound blocks' incoming edges drop to the slowest mode one
    block at a time while re-simulation confirms the deadline.  [None]
    when even the all-fast schedule misses the deadline. *)

val weiser_governor : interval:float -> Dvs_machine.Cpu.governor
(** Weiser-style interval policy (the OS-level related work): every
    [interval] seconds, step the mode up when the core was busy more
    than 90% of the window, down when below 65%.  Deadline-unaware —
    the comparison point that motivates compile-time DVS. *)
