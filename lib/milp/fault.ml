(* Deterministic fault injection for the MILP solve pipeline.

   An injector is a small bundle of atomic counters consulted by Solver
   at its failure-prone seams: node processing (worker crashes), LP
   solves (pivot exhaustion) and cache lookups (forced misses).  Every
   trigger is a pure function of the injector's settings and a
   monotonically increasing ordinal, so a given injector replays the
   same fault sequence on every run at jobs=1 — and the *set* of
   injected faults is identical at any job count, even though which
   worker observes each one may vary.

   The injector deliberately lives outside the hot path: when no fault
   is configured a solve never touches this module. *)

exception Injected_crash of { worker : int; node : int }

let () =
  Printexc.register_printer (function
    | Injected_crash { worker; node } ->
      Some
        (Printf.sprintf "Fault.Injected_crash(worker %d, node %d)" worker
           node)
    | _ -> None)

type injected = { crashes : int; exhaustions : int; forced_misses : int }

type t = {
  crash_at_nodes : int list;
  crash_every : int option;
  exhaust_pivots_every : int option;
  cache_miss_rate : float;
  node_ordinal : int Atomic.t;
  lp_ordinal : int Atomic.t;
  cache_ordinal : int Atomic.t;
  crashes : int Atomic.t;
  exhaustions : int Atomic.t;
  forced_misses : int Atomic.t;
}

let make ?(crash_at_nodes = []) ?crash_every ?exhaust_pivots_every
    ?(cache_miss_rate = 0.0) () =
  if cache_miss_rate < 0.0 || cache_miss_rate > 1.0 then
    invalid_arg "Fault.make: cache_miss_rate must be in [0, 1]";
  List.iter
    (fun n -> if n < 1 then invalid_arg "Fault.make: ordinals are 1-based")
    crash_at_nodes;
  List.iter
    (function
      | Some n when n < 1 ->
        invalid_arg "Fault.make: every-N periods must be >= 1"
      | _ -> ())
    [ crash_every; exhaust_pivots_every ];
  { crash_at_nodes; crash_every; exhaust_pivots_every; cache_miss_rate;
    node_ordinal = Atomic.make 0; lp_ordinal = Atomic.make 0;
    cache_ordinal = Atomic.make 0; crashes = Atomic.make 0;
    exhaustions = Atomic.make 0; forced_misses = Atomic.make 0 }

let every n ordinal =
  match n with Some n -> ordinal mod n = 0 | None -> false

let on_node t ~worker =
  let ordinal = 1 + Atomic.fetch_and_add t.node_ordinal 1 in
  if List.mem ordinal t.crash_at_nodes || every t.crash_every ordinal
  then begin
    Atomic.incr t.crashes;
    raise (Injected_crash { worker; node = ordinal })
  end

let pivot_budget t =
  let ordinal = 1 + Atomic.fetch_and_add t.lp_ordinal 1 in
  if every t.exhaust_pivots_every ordinal then begin
    Atomic.incr t.exhaustions;
    (* A one-pivot budget drives the real Simplex Iter_limit path rather
       than fabricating a status, so the whole error chain is exercised. *)
    (ordinal, Some 1)
  end
  else (ordinal, None)

(* Splitmix64 finalizer: a high-quality hash of the ordinal that needs
   no shared mutable RNG state, so parallel queries stay deterministic
   as a set. *)
let mix64 x =
  let ( * ) = Int64.mul and ( ^> ) v n = Int64.(logxor v (shift_right_logical v n)) in
  let x = Int64.of_int x in
  let x = (x ^> 33) * 0xff51afd7ed558ccdL in
  let x = (x ^> 33) * 0xc4ceb9fe1a85ec53L in
  x ^> 33

let force_cache_miss t =
  if t.cache_miss_rate <= 0.0 then (0, false)
  else begin
    let ordinal = 1 + Atomic.fetch_and_add t.cache_ordinal 1 in
    let h = mix64 ordinal in
    let u =
      Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.0
    in
    let hit = u < t.cache_miss_rate in
    if hit then Atomic.incr t.forced_misses;
    (ordinal, hit)
  end

let injected t =
  { crashes = Atomic.get t.crashes;
    exhaustions = Atomic.get t.exhaustions;
    forced_misses = Atomic.get t.forced_misses }
