(** Thread-safe memo cache for LP-relaxation solves.

    Entries are keyed by a structural {!fingerprint} of the model plus the
    canonical list of bound fixings layered on top of it, so a cache can
    be shared across many {!Solver} runs over the same formulation (the
    bench sweep drivers re-solve near-identical models hundreds of
    times).  {!Solver} consults it only for its basis-free solves, the
    root relaxation and the warm-start seed.  Capacity is bounded with
    LRU eviction: an insert beyond [max_entries] evicts the
    least-recently-used entry (and counts it in {!evictions}), so caches
    shared across whole bench sweeps stay hot on the current formulation
    instead of growing without limit or freezing on a first-come
    snapshot. *)

type t

val create : ?max_entries:int -> unit -> t
(** [max_entries] defaults to 4096.  Raises [Invalid_argument] when
    [max_entries < 1]. *)

val fingerprint : Dvs_lp.Model.t -> int
(** [Dvs_lp.Compiled.fingerprint] of the model's compiled form — a
    structural FNV-1a hash over the flattened bounds, integrality,
    scaled constraint rows and objective, using exact float bit
    patterns.  Two models sharing a fingerprint compile to the same
    arrays and are treated as identical by the cache.  {!Solver} keys
    its lookups off the compiled model it already holds, so the
    per-solve cost of this function is paid only by external callers. *)

val find_or_add :
  t ->
  fingerprint:int ->
  fixings:(Dvs_lp.Model.var * float * float) list ->
  (unit -> Dvs_lp.Simplex.status * Dvs_lp.Simplex.basis option) ->
  Dvs_lp.Simplex.status * Dvs_lp.Simplex.basis option
(** [find_or_add t ~fingerprint ~fixings compute] returns the cached
    result for the key, or runs [compute] (outside the cache lock) and
    stores its result.  [fixings] must be canonical: one entry per
    variable, sorted by variable index.  Hits return a private copy of
    the solution's value array. *)

val hits : t -> int

val misses : t -> int

val evictions : t -> int
(** Entries displaced by LRU eviction since creation. *)

val length : t -> int

type counts = { hits : int; misses : int; evictions : int; entries : int }

val stats : t -> counts
(** All four numbers under one lock — a mutually consistent snapshot,
    unlike reading the individual accessors while workers run.  This is
    what {!Solver} samples around a solve to compute per-solve deltas
    (including evictions) and to feed the [lp_cache.*] counters of an
    attached [Dvs_obs] registry. *)
