(** RISC-like instructions over unlimited virtual registers.

    This is the compilation target of the MiniC frontend and the input of
    the cycle-level machine simulator.  Latencies are *compute* latencies;
    memory instructions additionally pay the cache hierarchy's cost, which
    the machine model owns. *)

type reg = int

type binop =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor | Shl | Shr
  | Slt | Sle | Seq | Sne

type t =
  | Li of reg * int  (** load immediate *)
  | Mov of reg * reg
  | Binop of binop * reg * reg * reg  (** [Binop (op, rd, rs1, rs2)] *)
  | Load of reg * reg * int  (** [rd <- mem.(rs + offset)] *)
  | Store of reg * reg * int  (** [mem.(rs + offset) <- rv] *)
  | Nop
  | Modeset of int
      (** DVS mode-set pseudo-instruction (index into the mode table);
          inserted by the scheduler, never by the frontend. *)

val latency : t -> int
(** Issue-to-result compute cycles: 1 for simple ALU ops and [Li]/[Mov],
    3 for [Mul], 12 for [Div]/[Rem], 1 for address generation of memory
    ops (the hierarchy adds the rest), 0 for [Nop]/[Modeset] (the machine
    charges mode-set costs from the regulator model instead). *)

val defs : t -> reg list
(** Register written, if any. *)

val uses : t -> reg list
(** Registers read. *)

val max_reg : t -> reg
(** Largest register mentioned; [-1] if none. *)

val eval_binop : binop -> int -> int -> int
(** Integer semantics (division by zero yields 0, like a trap handler that
    substitutes a default — keeps synthetic workloads total). *)

val pp : Format.formatter -> t -> unit
