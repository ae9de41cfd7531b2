(** Two-level data-cache hierarchy over asynchronous DRAM. *)

type t

val create : Config.t -> t

val access : t -> word_addr:int -> int
(** The access's outcome packed into an immediate int, read with
    {!cycles} and {!dram}: the simulators call this once per load and
    store, and a record result would be allocated every time.

    L1 hit: L1 latency.  L1 miss, L2 hit: L1 + L2 latencies.  Both miss:
    the same synchronous lookup cycles plus a DRAM transaction whose
    wall-clock latency ([Config.dram_latency]) the CPU model accounts for
    asynchronously. *)

val cycles : int -> int
(** Synchronous cost in clock cycles (lookup + hit latencies). *)

val dram : int -> bool
(** Whether the access goes to memory. *)

val reset : t -> unit

val l1_stats : t -> Cache.stats

val l2_stats : t -> Cache.stats
