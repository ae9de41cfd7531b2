(* Memo cache for LP-relaxation solves, keyed by a structural fingerprint
   of the model plus the canonical set of bound fixings applied on top of
   it.  The sweep drivers in bench/ solve hundreds of near-identical
   models (same formulation, repeated warm-start seeds and root
   relaxations); sharing one cache across those solves short-circuits
   the repeated work.

   Thread-safe: the table is mutex-protected, and the closure computing a
   missing entry runs *outside* the lock so concurrent workers never
   serialize on an LP solve.  Two workers may race to compute the same
   key; the first store wins and the loser's result is discarded, which
   keeps cached entries a deterministic function of the key (see
   {!Solver}'s determinism note). *)

open Dvs_lp

type key = {
  fp : int;
  fixings : (Model.var * float * float) list;  (* sorted by var *)
}

(* Entries carry a last-use stamp for LRU eviction.  Eviction scans the
   table for the minimum stamp: O(n), but it only runs once per insert
   beyond capacity and n <= max_entries, while every miss costs a full
   LP solve — the scan is noise by comparison. *)
type entry = {
  status : Simplex.status;
  basis : Simplex.basis option;
  mutable stamp : int;
}

type t = {
  mutex : Mutex.t;
  table : (key, entry) Hashtbl.t;
  max_entries : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?(max_entries = 4096) () =
  if max_entries < 1 then
    invalid_arg "Lp_cache.create: max_entries must be >= 1";
  { mutex = Mutex.create (); table = Hashtbl.create 64; max_entries;
    tick = 0; hits = 0; misses = 0; evictions = 0 }

let hits t =
  Mutex.lock t.mutex;
  let h = t.hits in
  Mutex.unlock t.mutex;
  h

let misses t =
  Mutex.lock t.mutex;
  let m = t.misses in
  Mutex.unlock t.mutex;
  m

let evictions t =
  Mutex.lock t.mutex;
  let e = t.evictions in
  Mutex.unlock t.mutex;
  e

let length t =
  Mutex.lock t.mutex;
  let n = Hashtbl.length t.table in
  Mutex.unlock t.mutex;
  n

type counts = { hits : int; misses : int; evictions : int; entries : int }

let stats t =
  Mutex.lock t.mutex;
  let s =
    { hits = t.hits; misses = t.misses; evictions = t.evictions;
      entries = Hashtbl.length t.table }
  in
  Mutex.unlock t.mutex;
  s

(* The fingerprint is the one computed by Compiled at compilation time
   (FNV-1a over the flat row-major arrays, exact float bit patterns).
   Keying off the compiled form means the fingerprint sees exactly what
   the kernel solves — post row scaling, post slack bounds — so models
   that compile identically share cache entries even if their Model-level
   representations differ cosmetically. *)
let fingerprint m = Compiled.fingerprint (Compiled.of_model m)

(* Cached solutions are shared, so hand each hit its own copy of the
   mutable value array. *)
let copy_status = function
  | Simplex.Optimal s ->
    Simplex.Optimal { s with Simplex.values = Array.copy s.Simplex.values }
  | (Simplex.Infeasible | Simplex.Unbounded | Simplex.Iter_limit _) as st ->
    st

let touch t e =
  t.tick <- t.tick + 1;
  e.stamp <- t.tick

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun k e acc ->
        match acc with
        | Some (_, stamp) when stamp <= e.stamp -> acc
        | _ -> Some (k, e.stamp))
      t.table None
  in
  match victim with
  | Some (k, _) ->
    Hashtbl.remove t.table k;
    t.evictions <- t.evictions + 1
  | None -> ()

let find_or_add t ~fingerprint ~fixings compute =
  let key = { fp = fingerprint; fixings } in
  Mutex.lock t.mutex;
  match Hashtbl.find_opt t.table key with
  | Some e ->
    t.hits <- t.hits + 1;
    touch t e;
    Mutex.unlock t.mutex;
    (copy_status e.status, e.basis)
  | None ->
    t.misses <- t.misses + 1;
    Mutex.unlock t.mutex;
    let ((st, basis) as r) = compute () in
    Mutex.lock t.mutex;
    if not (Hashtbl.mem t.table key) then begin
      if Hashtbl.length t.table >= t.max_entries then evict_lru t;
      let e = { status = copy_status st; basis; stamp = 0 } in
      touch t e;
      Hashtbl.add t.table key e
    end;
    Mutex.unlock t.mutex;
    r
