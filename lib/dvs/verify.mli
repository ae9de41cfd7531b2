(** Closing the loop: re-simulate a scheduled program and check it
    against the MILP's predictions.

    The paper's formulation predicts energy/time from per-block profile
    averages; the simulator replays the real thing with mode-sets applied
    on edges.  Agreement (within a small tolerance from cross-block cache
    and overlap interactions) is the evidence that the optimization is
    sound.

    The workhorse is {!Session}: create one per workload and it records
    the execution once, then re-costs every candidate schedule by tape
    replay ({!Dvs_machine.Summary}) — bit-identical to the cycle-accurate
    simulator, held so by the test suite — so a 30-point deadline sweep
    pays for one simulation, not thirty.  {!Session.for_profile} goes
    further and takes over the recording the profiler already made, so
    the sweep pays for no simulation beyond profiling. *)

val deadline_tolerance : float
(** Relative slack allowed on the measured completion time: a schedule
    meets deadline [d] when [time <= d *. (1.0 +. deadline_tolerance)].
    Currently 0.005 (0.5%), absorbing cross-block cache and miss-overlap
    interactions the per-block MILP model cannot see.  This constant is
    the single source of truth — every checker in the repo goes through
    it. *)

type report = {
  stats : Dvs_machine.Cpu.run_stats;
  deadline : float;
  meets_deadline : bool;  (** within {!deadline_tolerance} *)
  predicted_energy : float;  (** joules, from the MILP objective *)
  energy_error : float;  (** |measured - predicted| / predicted *)
  token : int;
      (** names the verification's cached segments inside its session
          (pass the report to {!Session.check}'s [against]); [0] when the
          check did not run through a warm session *)
}

(** A verification session: owns the recorded workload and the summary
    cache, so repeated checks of different schedules share work.  Safe
    to share across domains. *)
module Session : sig
  type t

  val create :
    ?fuel:int ->
    ?cold:bool ->
    ?obs:Dvs_obs.t ->
    Dvs_machine.Config.t -> Dvs_ir.Cfg.t -> memory:int array -> t
  (** Record the workload once (a cycle-accurate {!Dvs_machine.Cpu.run};
      [obs] instruments that recording run only).  [cold] (default
      [false]) disables summarization entirely: every subsequent check
      re-runs the cycle-accurate simulator — the exact path CI keeps
      alive via [--cold-verify].  A cold session skips the recording
      run. *)

  val check :
    ?obs:Dvs_obs.t -> ?against:report ->
    t -> schedule:Schedule.t -> deadline:float -> predicted_energy:float ->
    report
  (** Verify one schedule.  [obs] receives the simulator's instruments
      for this check (replayed or cycle-accurate).  With [against], splice
      against that report's cached segments: only the region from the
      first mode-set edge on which the two schedules differ is
      re-simulated ({!Schedule.diff}).  Results are bit-identical to a
      check without [against]; a cold session, or segments no longer
      cached, get a full simulation or replay. *)

  val cold : t -> bool

  (** Where {!for_profile}'s session came from. *)
  type source =
    | Profile  (** the profile's own recording, taken over *)
    | Caller  (** the session the caller passed *)
    | Recorded  (** a fresh recording ({!create}) *)
    | Cold  (** a cold session: every check simulates *)

  val source_name : source -> string
  (** ["profile"], ["caller"], ["recorded"] or ["cold"]. *)

  val for_profile :
    ?session:t ->
    cold:bool ->
    Dvs_machine.Config.t -> Dvs_profile.Profile.t -> memory:int array ->
    source * t Lazy.t
  (** The session that verifies [profile]'s program on [memory] under
      machine [config]: [session] when given; otherwise the profile's
      recording ({!Dvs_profile.Profile.take_recording}) when [cold] is
      off and it was recorded under an equal config, on the profile's
      cfg and on an equal memory image; otherwise a session {!create}d
      on first force.  The profile's slot is empty afterwards in every
      case.  Taking over a recording does not re-simulate, and replays
      on it are bit-identical to replays on a fresh recording. *)

  val profile_fits :
    cold:bool -> Dvs_machine.Config.t -> Dvs_profile.Profile.t ->
    memory:int array -> bool
  (** Whether {!for_profile} without a caller session would take over
      the profile's recording right now.  Leaves the slot as it is. *)
end
