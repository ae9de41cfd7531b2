type t = {
  l1 : Cache.t;
  l2 : Cache.t;
  l1_latency : int;
  l2_latency : int;
  word_bytes : int;
}

let create (cfg : Config.t) =
  { l1 = Cache.create cfg.l1d; l2 = Cache.create cfg.l2;
    l1_latency = cfg.l1d.latency_cycles; l2_latency = cfg.l2.latency_cycles;
    word_bytes = cfg.word_bytes }

(* Outcome encoding: [(cycles lsl 1) lor dram_bit]. *)
let access t ~word_addr =
  let byte_addr = word_addr * t.word_bytes in
  if Cache.access t.l1 byte_addr then t.l1_latency lsl 1
  else if Cache.access t.l2 byte_addr then (t.l1_latency + t.l2_latency) lsl 1
  else ((t.l1_latency + t.l2_latency) lsl 1) lor 1

let cycles o = o lsr 1

let dram o = o land 1 = 1

let reset t =
  Cache.reset t.l1;
  Cache.reset t.l2

let l1_stats t = Cache.stats t.l1

let l2_stats t = Cache.stats t.l2
