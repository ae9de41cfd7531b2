(** Structured trace: named, attribute-carrying point events and timed
    spans, buffered per worker slot and exported as JSONL.

    Timestamps come from a per-trace epoch and are clamped monotonic per
    slot, so within a slot the event order and the timestamp order
    agree even if the wall clock steps backwards.  Each slot's buffer is
    written by one domain at a time (the {!Dvs_milp.Solver} worker
    discipline) and guarded by its own mutex, so cross-slot traffic
    never contends.

    Capacity is bounded: past [capacity] recorded entries new ones are
    dropped and counted in {!dropped}, so tracing a long run degrades to
    a truncated trace rather than unbounded memory.

    {b Stability} mirrors {!Metrics.stability}: events whose {e set}
    (name + attributes, ignoring timestamps and slot) is a deterministic
    function of the inputs are [Stable]; anything timeline- or
    interleaving-dependent is [Volatile].  {!stable_set} gives the
    canonical comparison key list for determinism tests. *)

type t

type value =
  | Bool of bool
  | Int of int
  | Float of float
  | String of string

type stability = Stable | Volatile

type entry = {
  name : string;
  ts : float;  (** seconds since the trace epoch *)
  dur : float option;  (** [Some] for spans: seconds *)
  slot : int;
  stability : stability;
  attrs : (string * value) list;
}

val create : ?capacity:int -> unit -> t
(** Enabled trace; [capacity] (default 65536) bounds total recorded
    entries.  Raises [Invalid_argument] when [capacity < 0]. *)

val disabled : t
(** Shared no-op trace: recording is a boolean test, {!start} returns a
    shared dummy span. *)

val enabled : t -> bool

val event :
  t -> ?slot:int -> ?stability:stability -> ?attrs:(string * value) list ->
  string -> unit
(** Point event.  [stability] defaults to [Volatile] — mark [Stable]
    only when the event set provably survives a worker-count change. *)

type span

val start :
  t -> ?slot:int -> ?stability:stability -> ?attrs:(string * value) list ->
  string -> span
(** Opens a span; record it with {!finish}.  On a disabled trace returns
    a shared dummy. *)

val finish : t -> ?attrs:(string * value) list -> span -> unit
(** Records the span with its measured duration; [attrs] are appended to
    the ones given at {!start}.  Finishing a dummy span is a no-op. *)

val entries : t -> entry list
(** Everything recorded so far, merged across slots and sorted by
    timestamp (ties by slot, then name).  Call after worker domains have
    joined. *)

val dropped : t -> int
(** Entries discarded after [capacity] was reached. *)

val entry_json : entry -> Json.t
(** One JSONL line: keys [ts], [kind], [name], [slot], [stability],
    [dur] (spans only), [attrs] — in that order. *)

val write_jsonl : t -> out_channel -> unit
(** One {!entry_json} per line.  A final comment-free summary line with
    [name = "trace.summary"] carries the entry and dropped counts. *)

val stable_set : t -> string list
(** Canonical determinism key per stable entry — name plus rendered
    attrs, timestamps and slots erased — sorted lexicographically. *)
