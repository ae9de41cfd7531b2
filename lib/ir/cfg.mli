(** Control-flow graphs of basic blocks.

    Blocks are identified by dense integer labels.  Every block ends in an
    explicit terminator; edges are the (src, dst) pairs the terminators
    induce.  The DVS optimization is {e edge-based} (Section 4.1 of the
    paper): a mode can be attached to each edge, so edges are first-class
    here ({!edges}, {!edge_index}). *)

type label = int

type terminator =
  | Jump of label
  | Branch of Instr.reg * label * label
      (** [Branch (r, taken, fallthrough)]: taken when [r <> 0]. *)
  | Halt

type block = {
  label : label;
  name : string;
  body : Instr.t array;
  term : terminator;
}

type t

type edge = { src : label; dst : label }

val entry : t -> label

val blocks : t -> block array
(** Indexed by label. *)

val block : t -> label -> block

val num_blocks : t -> int

val successors : t -> label -> label list

val predecessors : t -> label -> label list

val edges : t -> edge array
(** All edges in a fixed order, plus a virtual entry edge is NOT included;
    see {!Dvs_profile} for how the entry context is handled. *)

val edge_index : t -> edge -> int
(** Position of an edge in {!edges}.  Raises [Not_found] for non-edges. *)

val edge_index_of : t -> src:label -> dst:label -> int
(** [edge_index g {src; dst}] without building the edge: a constant-time
    lookup in [src]'s successor slots, allocation-free for the
    simulator's per-block use.  Raises [Not_found] for non-edges. *)

val validate : t -> (unit, string) result
(** Checks: entry in range, all terminator targets in range, labels dense
    and consistent with array positions. *)

val map_blocks : (block -> block) -> t -> t
(** Rebuild with transformed blocks (labels must be preserved). *)

val pp : Format.formatter -> t -> unit

val to_dot : t -> string
(** Graphviz rendering (block names as nodes). *)

(** Imperative construction API. *)
module Builder : sig
  type cfg := t

  type t

  val create : unit -> t

  val add_block : ?name:string -> t -> label
  (** Fresh block; body and terminator filled in later. *)

  val push : t -> label -> Instr.t -> unit
  (** Append an instruction to a block's body. *)

  val set_term : t -> label -> terminator -> unit
  (** May be called once per block; raises if re-set. *)

  val finish : t -> entry:label -> cfg
  (** Raises [Invalid_argument] if a block has no terminator or
      {!validate} fails. *)
end
