(** Concrete DVS schedules: one mode per CFG edge plus the start mode
    chosen by the virtual entry edge. *)

type t = {
  edge_mode : int array;  (** per {!Dvs_ir.Cfg.edge_index} *)
  entry_mode : int;
}

val of_solution : Formulation.t -> Dvs_lp.Simplex.solution -> t

val uniform : Dvs_ir.Cfg.t -> int -> t
(** Everything pinned at one mode (the single-frequency baselines). *)

val edge_modes : t -> Dvs_ir.Cfg.t -> Dvs_ir.Cfg.edge -> int option
(** Adapter for {!Dvs_machine.Cpu.run}'s [edge_modes]. *)

val equal : t -> t -> bool

val diff : t -> t -> bool * int list
(** [diff a b] is [(entry_changed, edges)]: whether the entry modes
    differ, and the {!Dvs_ir.Cfg.edge_index} list (ascending) where the
    edge modes differ.  Incremental re-verification
    ({!Verify.Session.check}'s [against]) re-simulates only from the
    first traversal of a differing edge.  Raises [Invalid_argument] when
    the schedules have different edge counts. *)

val distinct_modes : t -> int list
(** Modes that actually appear. *)

val to_string : t -> string
(** Stable one-line-per-entry text form (for saving schedules to
    disk). *)

val of_string : string -> (t, string) result
(** Parse {!to_string} output. *)

val pp : Format.formatter -> t -> unit
