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

    The virtual {e entry context} is represented by [None] in path
    predecessors, and the entry block is charged through a virtual entry
    edge (see {!Dvs_core.Formulation}). *)

type path = {
  pred : Dvs_ir.Cfg.label option;
      (** [None] for the program-entry invocation *)
  node : Dvs_ir.Cfg.label;
  succ : Dvs_ir.Cfg.label;
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
}

val collect :
  ?fuel:int -> Dvs_machine.Config.t -> Dvs_ir.Cfg.t -> memory:int array -> t
(** One recorded simulation, then one pinned replay per mode in the
    config's table.  Raises {!Dvs_machine.Cpu.Out_of_fuel} when the
    recording run exhausts [fuel] blocks. *)

val block_time : t -> mode:int -> Dvs_ir.Cfg.label -> float
(** Average per-invocation time (0 for never-executed blocks). *)

val block_energy : t -> mode:int -> Dvs_ir.Cfg.label -> float

val g_of_edge : t -> Dvs_ir.Cfg.edge -> int

val pinned_time : t -> mode:int -> float
(** Whole-program wall time pinned at a mode (Table 4's columns). *)

val pinned_energy : t -> mode:int -> float

val pp_summary : Format.formatter -> t -> unit
