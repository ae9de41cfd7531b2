(** Simulation-based program profiling (the paper's Section 5.1).

    For a program and an input, collects everything the MILP formulation
    needs:
    - [G_ij]: how often block [j] is entered through edge [(i, j)]
      (mode-independent — the program's logical behavior does not change
      with frequency);
    - [D_hij]: local-path counts — block [i] entered via [(h, i)] and
      exited via [(i, j)];
    - [T_jm], [E_jm]: per-invocation execution time and energy of block
      [j] pinned at mode [m] (time is {e not} a simple rescaling across
      modes because DRAM time is frequency-invariant).

    One cycle-accurate simulation records an execution tape
    ({!Dvs_machine.Summary.create}); the counts come from its block
    sequence, and each mode's block costs from a replay of the tape
    pinned at that mode ({!Dvs_machine.Summary.replay_pinned}), which is
    bit-identical to simulating the mode (Assumption 1: modes change
    timing, not behavior).

    That recording is also what verifying this input's schedules
    replays, so the profile keeps it in a take-once slot
    ({!take_recording}) for the first pipeline call that verifies on
    it ([Dvs_core.Verify.Session.for_profile]); one (program, input)
    then costs one recorded simulation end to end.

    The virtual {e entry context} is represented by [None] in path
    predecessors, and the entry block is charged through a virtual entry
    edge (see {!Dvs_core.Formulation}). *)

type path = {
  pred : Dvs_ir.Cfg.label option;
      (** [None] for the program-entry invocation *)
  node : Dvs_ir.Cfg.label;
  succ : Dvs_ir.Cfg.label;
}

(** The recorded execution a profile was built from, with what it was
    recorded on.  Its summary memo already holds every (variant, mode)
    cost the pinned replays met. *)
type recording = {
  rec_config : Dvs_machine.Config.t;
  rec_cfg : Dvs_ir.Cfg.t;  (** the profile's own [cfg] *)
  rec_memory : int array;  (** a copy of the input image *)
  rec_summary : Dvs_machine.Summary.t;
}

type t = {
  cfg : Dvs_ir.Cfg.t;
  config : Dvs_machine.Config.t;
  exec_count : int array;  (** per block *)
  edge_count : int array;  (** per {!Dvs_ir.Cfg.edge_index}; this is G *)
  entry_count : int;  (** entries through the virtual entry edge *)
  paths : (path * int) list;
      (** D, every observed local path, in an order independent of the
          process's hash seed (it feeds the store fingerprint and the
          order of the formulation's variables) *)
  total_time : float array array;  (** [total_time.(m).(j)] *)
  total_energy : float array array;
  runs : Dvs_machine.Cpu.run_stats array;
      (** per mode, the whole pinned run's stats *)
  recording : recording option Atomic.t;
      (** take-once slot: {!collect} fills it, {!take_recording} empties
          it.  Not part of the profile's content — the store neither
          writes nor fingerprints it, and a decoded profile starts
          empty.  Copies made with [{ p with ... }] share it. *)
  mutable fingerprint : fingerprint option;
      (** the store's content fingerprint once known ({!fingerprint}):
          [None] from {!collect} and in every literal.  Not part of the
          profile's content either. *)
}

and fingerprint
(** A remembered fingerprint and the content it was computed from. *)

val no_recording : unit -> recording option Atomic.t
(** A fresh empty slot, for profiles built other than by {!collect}. *)

val recording : t -> recording option
(** The slot's content, left in place. *)

val take_recording : t -> recording option
(** Atomically empty the slot and return what it held: of any number of
    concurrent takers, exactly one gets the recording. *)

val fingerprint : t -> string option
(** The value {!remember_fingerprint} stored, if this record still holds
    the very content (the same arrays and list, the same [entry_count])
    it was stored for.  A copy [{ p with exec_count = ... }] made after
    it was stored therefore reads [None]; profile content is never
    mutated in place.  Nothing outside the record holds the value, so
    it lives and dies with the profile. *)

val remember_fingerprint : t -> string -> unit
(** Store the content fingerprint of [p]'s current content.  The caller
    vouches for the value: [Dvs_store.Codec.profile_fingerprint] is the
    only definition, and the store's checksums the only other source. *)

val collect :
  ?fuel:int -> Dvs_machine.Config.t -> Dvs_ir.Cfg.t -> memory:int array -> t
(** One recorded simulation, then one pinned replay per mode in the
    config's table; the recording stays in the result's slot.  Raises
    {!Dvs_machine.Cpu.Out_of_fuel} when the recording run exhausts
    [fuel] blocks. *)

val block_time : t -> mode:int -> Dvs_ir.Cfg.label -> float
(** Average per-invocation time (0 for never-executed blocks). *)

val block_energy : t -> mode:int -> Dvs_ir.Cfg.label -> float

val g_of_edge : t -> Dvs_ir.Cfg.edge -> int

val pinned_time : t -> mode:int -> float
(** Whole-program wall time pinned at a mode (Table 4's columns). *)

val pinned_energy : t -> mode:int -> float

val pp_summary : Format.formatter -> t -> unit
