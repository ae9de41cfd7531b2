(** Canonical content-addressed cache keys.

    A key names one stored artifact: a [kind] (the artifact class —
    ["sim"], ["solve"], ["sweep"]) plus a canonical string rendered from
    named components.  Components are sorted by name, floats are rendered
    by their IEEE-754 bit pattern (so two keys collide only when every
    input bit agrees), and the on-disk filename is the FNV-1a hash of the
    canonical string.  The full canonical string is stored inside each
    entry and compared on lookup, so even a filename-hash collision
    degrades to a miss, never to a wrong answer. *)

type component =
  | I of int
  | F of float  (** compared by bit pattern, not by printed decimal *)
  | S of string
  | L of component list

type t

val make : kind:string -> (string * component) list -> t
(** [make ~kind components] builds the canonical key.  Components are
    sorted by name, so call sites need not agree on an order.  Raises
    [Invalid_argument] when [kind] is empty or contains characters
    outside [a-z0-9_] (it becomes a filename prefix), or when a
    component name contains ['|'] or ['=']. *)

val kind : t -> string

val canonical : t -> string
(** The full rendered key, embedded verbatim in every store entry. *)

val filename : t -> string
(** ["<kind>-<fnv64 hex>.json"] — where the entry lives under the store
    root. *)

val hash_hex : string -> string
(** 64-bit FNV-1a of a string as 16 hex digits.  Also used by the store
    for per-entry payload checksums.  Allocates only the result. *)

(** {2 Incremental FNV-1a}

    For hashing bytes that are never materialized as one string
    ({!Codec.memory_fingerprint}): starting from [h = fnv_offset], each
    byte [c] steps [h <- (h lxor c) * fnv_prime]; {!hex64} renders the
    result as {!hash_hex} does.  Keep [h] in a local [ref] that no
    closure or call sees, so ocamlopt leaves it unboxed. *)

val fnv_offset : int64

val fnv_prime : int64

val hex64 : int64 -> string
