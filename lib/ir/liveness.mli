(** Classic backward liveness dataflow over virtual registers.

    Used by dead-code elimination and useful for diagnostics.  Branch
    condition registers are uses; [Store] uses both operands; [Modeset]
    and [Nop] neither use nor define registers. *)

type t

val compute : ?exit_live:Instr.reg list -> Cfg.t -> t
(** [exit_live] is the set of registers whose final values are the
    program's observable output, kept live across [Halt] (default: every
    register in the program — maximally conservative).  A compiler
    passes its named scalars here. *)

val live_in : t -> Cfg.label -> Instr.reg list
(** Sorted. *)

val live_after : t -> Cfg.label -> int -> Instr.reg -> bool
(** [live_after t l i r]: is [r] live immediately after instruction
    index [i] of block [l] (i.e. could a later use read the value it
    holds there)?  Raises [Invalid_argument] on bad indices. *)
