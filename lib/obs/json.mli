(** Minimal JSON values with a deterministic printer and a small parser —
    just enough for the observability export formats ({!Trace} JSONL
    lines, {!Metrics} snapshots, bench summaries) without an external
    dependency.

    Printing is deterministic: object members are emitted in the order
    they appear in the [Obj] list (snapshot builders sort them), floats
    print with round-trip precision and always carry a ['.'] or
    exponent so they re-parse as floats, and non-finite floats (not
    representable in JSON) print as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering. *)

val to_channel : out_channel -> t -> unit

val of_string : string -> (t, string) result
(** Parses one JSON value (surrounding whitespace allowed).  Numbers
    without ['.'], ['e'] or ['E'] parse as [Int] (as [Float] past the
    int range); escapes including [\uXXXX] are decoded to UTF-8, a
    surrogate pair to one code point.

    Never raises: every malformed input is an [Error] carrying the
    reason and byte offset.  It rejects a [\u] escape that is not
    exactly four hex digits, an unknown escape, an unterminated string,
    a number that neither [int_of_string] nor [float_of_string] reads,
    a misspelled literal, a missing [','], [':'], [']'] or ['}'], and
    trailing bytes after the value.  It accepts leading zeros and raw
    control bytes inside strings, as it always has.

    Allocation: the tree itself, plus one [String.sub] per string
    without escapes (a [Buffer] only for a string with one) and per
    float; an integer that fits is read in place.  A list of ints
    costs 8 words per element, a list of hex-float strings about 12. *)

val equal : t -> t -> bool
(** Structural equality; object member {e order matters} (printing is
    order-sensitive too). *)

(** {2 Accessors} — total, returning [None] on shape mismatch. *)

val member : string -> t -> t option
(** [member k (Obj kvs)] is the first binding of [k]. *)

val to_int : t -> int option
(** [Int n] and integral [Float]s. *)

val to_float : t -> float option
(** [Float f] and [Int n] (as a float). *)

val to_string_opt : t -> string option

val to_list : t -> t list option

val keys : t -> string list option
(** Member names of an [Obj], in order. *)
