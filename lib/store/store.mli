(** Content-addressed, on-disk result store (DESIGN.md section 14).

    One flat directory of JSON entries, one artifact per file, named by
    {!Key.filename}.  Every entry is a [dvs-store/v1] envelope carrying
    the full canonical key, the store-format {!format_epoch} it was
    written under, and an FNV-1a checksum of the payload bytes as
    written:

    {v
    {"schema":"dvs-store/v1","key":"...","kind":"sim","epoch":4,
     "checksum":"...","payload":{...}}
    v}

    [put] renders the payload once, checksums those bytes and writes
    them as the last member, so the file is exactly [Json.to_string] of
    the whole envelope.  Lookups check the checksum against the payload
    bytes as they sit in the file and decode exactly those bytes; no
    parsed payload is ever re-rendered.

    Guarantees:
    - {b atomicity}: entries are written to a temp file in the store
      directory and [rename]d into place, so a reader never observes a
      partial entry — from any domain or any process;
    - {b corruption is a miss}: an entry that fails to parse, carries the
      wrong schema tag, records a different canonical key (filename-hash
      collision), or fails its checksum is deleted and reported as a
      miss; it can never surface as a wrong answer or a crash;
    - {b epoch invalidation}: bumping the format epoch strands every
      existing entry — lookups classify them as stale and remove them;
    - {b bounded size}: [put] evicts least-recently-used entries (mtime
      order; hits touch the file) beyond [max_entries]/[max_bytes].

    Lookups and insertions are safe under concurrent use by multiple
    domains of one process and by multiple processes sharing the
    directory (the daemon and [bench] sharing one store). *)

type t

val format_epoch : int
(** The store-format epoch compiled into this binary (9: each memory
    image in a payload's {!Codec} image table is one string of
    comma-separated decimal words instead of a list of integers, so
    every payload that carries one changed bytes, and with them every
    profile fingerprint (a [sim] payload's checksum) and every [sweep]
    key; since 8, sweeps run no
    root cutting loop and sweep stats lost their cut and root-pivot
    members; since 7, incumbents are clamped into their bounds, and
    sweep keys lost the [pipe.filter_threshold] component; since 6,
    every branch and bound node below the root warm starts from its
    parent's basis and only basis-free solves are cached; since 5,
    every LP finishes on its LU factor and every branch and bound
    branches by pseudocost; since 4, payloads carry a {!Codec} image
    table, each run's memory an index into it).  Bump it whenever entry payload semantics change
    (simulator cost model, solver semantics, codec layout): every entry
    written under an older epoch becomes stale everywhere at once. *)

val default_root : string
(** ["_store"] — the conventional per-checkout location (gitignored). *)

val env_var : string
(** ["DVS_STORE"] — [bench] reads it: unset means {!default_root}, a
    path selects that root, and ["off"]/["0"]/[""] disables the store. *)

val open_ :
  ?obs:Dvs_obs.t ->
  ?epoch:int ->
  ?max_entries:int ->
  ?max_bytes:int ->
  root:string ->
  unit ->
  t
(** Open (creating directories as needed) a store rooted at [root].
    [epoch] defaults to {!format_epoch} and exists for tests that
    exercise invalidation.  [max_entries] defaults to 4096 entries and
    [max_bytes] to 256 MiB; either can be raised by the caller.  [obs]
    receives volatile [store.*] counters ([store.<kind>_hits],
    [store.<kind>_misses], [store.stale], [store.corrupt], [store.puts],
    [store.evictions]).  Raises [Invalid_argument] on non-positive
    bounds or epoch. *)

val root : t -> string

val epoch : t -> int

type entry = {
  en_key : string;  (** the canonical key the entry was written for *)
  en_epoch : int;
  en_checksum : string;
      (** {!Key.hash_hex} of the payload bytes, checked against them *)
  en_payload : Dvs_obs.Json.t;
}

val read_entry : string -> (entry, string) result
(** Read one entry file and check it exactly as {!get}, {!gc} and
    {!verify} do: the header must be a [dvs-store/v1] envelope, and the
    payload bytes, as they sit in the file, must hash to its checksum;
    the payload returned is the parse of those bytes.  The epoch and the
    key are returned, not judged: the entry is live when [en_epoch] is
    the store's epoch.  [dvstool stats --store FILE --check] applies this
    same check. *)

val get :
  t ->
  Key.t ->
  decode:(checksum:string -> Dvs_obs.Json.t -> ('a, string) result) ->
  'a option
(** Look up an entry and decode its payload.  [decode] also receives the
    entry's verified checksum: {!Key.hash_hex} of
    [Json.to_string payload] as {!put} rendered it, so a decoder whose
    artifact is fingerprinted by that hash ([Exec]'s profiles) need not
    render it again.  Any failure along the way — absent file,
    unparseable JSON, schema/key/checksum mismatch, stale epoch, decode
    error — is a miss ([None]); corrupt and stale entries are deleted on
    sight.  A hit touches the entry's mtime (the LRU clock shared with
    every other process using the store). *)

val get_json : t -> Key.t -> Dvs_obs.Json.t option
(** [get] with the identity decoder. *)

val put : t -> Key.t -> Dvs_obs.Json.t -> string
(** Insert (or overwrite) an entry atomically, then enforce the size
    bounds, and return the entry's checksum, {!Key.hash_hex} of
    [Json.to_string payload] (also when the write failed).  Never
    raises on I/O failure — a store that cannot write degrades to a
    cache that never hits, not a crashed run. *)

type counts = {
  hits : int;
  misses : int;
  stale : int;  (** entries dropped for an old epoch *)
  corrupt : int;  (** entries dropped for checksum/shape damage *)
  puts : int;
  evictions : int;  (** LRU evictions performed by this process *)
}
(** Process-local activity counters (the on-disk truth is {!disk_stats}). *)

val counts : t -> counts

type disk_stats = {
  entries : int;
  bytes : int;
  by_kind : (string * int) list;  (** entry count per kind, name-sorted *)
}

val disk_stats : t -> disk_stats

type gc_report = {
  gc_scanned : int;
  gc_kept : int;
  gc_stale : int;  (** removed: written under another epoch *)
  gc_corrupt : int;  (** removed: damaged or foreign files *)
  gc_evicted : int;  (** removed: beyond the LRU bounds *)
}

val gc : t -> gc_report
(** Scan every entry: drop stale and corrupt ones, then enforce the LRU
    bounds.  Safe to run while other processes use the store. *)

type verify_report = {
  vr_checked : int;
  vr_ok : int;
  vr_stale : int;
  vr_corrupt : (string * string) list;  (** (filename, reason), sorted *)
}

val verify : t -> verify_report
(** Read-only integrity scan: parse and checksum every entry, touching
    nothing.  [vr_ok + vr_stale + List.length vr_corrupt = vr_checked]. *)
