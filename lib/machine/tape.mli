(** Execution tape: the schedule-independent record of one simulated run.

    Assumption 1 (DESIGN.md section 2, cross-checked by the test suite)
    says the {e architectural} behavior of a program — block path, branch
    directions, address stream, cache hit/miss outcomes, final registers
    and memory — does not depend on the DVS schedule; modes only scale
    time and energy.  A tape captures exactly that invariant part once,
    as a compact op stream per dynamic basic block, so any candidate
    schedule can be re-costed by replaying arithmetic on the tape instead
    of re-interpreting every instruction ({!Summary}).

    Ops mirror the cost-bearing calls inside {!Cpu.run} one-for-one
    (each [charge], stall check, pending clear, miss issue and mode-set
    in program order), which is what makes tape replay {e bit-identical}
    to the cycle-accurate simulator: both accumulate the same floats in
    the same order.

    Dynamic blocks are hash-consed into {e variants} (a block label plus
    one observed op sequence; the same label yields different variants
    when its cache outcomes differ), so the replayer can memoize
    per-(variant, mode) cost summaries. *)

open Dvs_ir

(** {2 Op encoding}

    Ops are tagged ints: [(payload lsl 3) lor tag], decoded as
    [op land 7] and [op lsr 3].  Payloads are cycle counts, register
    numbers or mode indices, all small and non-negative.  One tag per
    cost-bearing call in {!Cpu.run}: *)

val tag_compute : int
(** [charge `Compute c]; payload [c]. *)

val tag_hit : int
(** [charge `Mem_hit c]; payload [c]. *)

val tag_wait : int
(** [wait_for r], recorded only when register [r] had a pending miss
    completion at record time (a schedule-independent fact); payload
    [r]. *)

val tag_clear : int
(** [pending.(r) <- neg_infinity], recorded only when it actually
    cleared something; payload [r]. *)

val tag_miss_load : int
(** A load miss making [rd] pending; payload [rd]. *)

val tag_miss_store : int
(** A store miss; payload [0]. *)

val tag_modeset : int
(** A [Modeset m] instruction; payload [m] (edge mode-sets are {e not}
    on the tape; the replayer applies them from the schedule under
    test). *)

(** {2 Variants} *)

type variant = {
  label : Cfg.label;  (** the static block this variant came from *)
  ops : int array;  (** cost ops, program order, terminator included *)
  dyn : int;  (** instructions executed in the block (its body length) *)
  summarizable : bool;
      (** no miss and no [Modeset] op: the block's cost delta depends
          only on the entering mode whenever no miss is in flight at
          entry *)
}

(** {2 Recording} *)

type recorder
(** Attach to a run via {!Cpu.Run_config.make}'s [recorder]; single
    use. *)

val recorder : Cfg.t -> recorder

val enter_block : recorder -> label:Cfg.label -> unit
(** Start the next dynamic block.  Seals the previous block, interning
    its variant without allocating when the (label, op sequence) was
    seen before. *)

val record : recorder -> int -> int -> unit
(** [record r tag payload] appends one op to the current block. *)

type t = {
  variants : variant array;
  seq : int array;  (** variant index per dynamic block position *)
  edge_of : int array;
      (** incoming {!Cfg.edge_index} per position; [-1] at entry *)
  first_edge_pos : int array;
      (** per edge index, the first position entered through that edge
          ([max_int] when the edge was never traversed) *)
  n_edges : int;
  n_regs : int;
  dyn_instrs : int;
  l1 : Cache.stats;
  l2 : Cache.stats;
  registers : int array;  (** final architectural registers *)
  memory : int array;  (** final memory image *)
}

val create :
  recorder ->
  dyn_instrs:int ->
  l1:Cache.stats ->
  l2:Cache.stats ->
  registers:int array ->
  memory:int array -> t
(** Seal the recording, taking the schedule-independent final state
    (registers, memory, cache stats, instruction count) from the
    recording run's stats.  Raises [Invalid_argument] if the recorder
    saw no blocks. *)

val positions : t -> int
(** Dynamic blocks on the tape. *)

val first_divergence :
  t -> entry_changed:bool -> edges:int list -> int option
(** The first tape position whose cost could differ between two
    schedules that differ exactly on [edges] (by {!Cfg.edge_index}) and,
    when [entry_changed], on the entry mode.  [None] means no traversed
    edge differs — the two schedules cost identically on this tape.
    Position [0] when the entry mode changed. *)
