(* Execution tape: schedule-independent record of one simulated run.
   See tape.mli for the model; Summary replays these ops. *)

open Dvs_ir

(* ---- op encoding ------------------------------------------------------ *)

let tag_compute = 0

let tag_hit = 1

let tag_wait = 2

let tag_clear = 3

let tag_miss_load = 4

let tag_miss_store = 5

let tag_modeset = 6

let op_tag op = op land 7

(* ---- variants --------------------------------------------------------- *)

type variant = {
  label : Cfg.label;
  ops : int array;
  dyn : int;
  summarizable : bool;
}

(* Growable int buffer (no Buffer for ints in the stdlib). *)
module Ibuf = struct
  type t = { mutable data : int array; mutable len : int }

  let create n = { data = Array.make (Int.max n 16) 0; len = 0 }

  let clear b = b.len <- 0

  let push b v =
    if b.len = Array.length b.data then begin
      let data = Array.make (2 * b.len) 0 in
      Array.blit b.data 0 data 0 b.len;
      b.data <- data
    end;
    b.data.(b.len) <- v;
    b.len <- b.len + 1

  let contents b = Array.sub b.data 0 b.len
end

(* Variant interning without allocating per dynamic block: a chained
   hash table over variant ids, keyed by (label, op sequence) and probed
   with the op buffer in place — only a new variant copies its ops out.
   One label can have dozens of variants (one per cache-outcome pattern),
   so the table hashes the ops rather than scanning a label's list. *)
type recorder = {
  cfg : Cfg.t;
  mutable vtab : variant array;  (* by id; the first [n_vars] are live *)
  mutable n_vars : int;
  v_hash : Ibuf.t;  (* per variant: full hash *)
  v_next : Ibuf.t;  (* per variant: next id in its bucket, -1 at end *)
  mutable buckets : int array;  (* head id per bucket, -1 when empty *)
  seq : Ibuf.t;
  cur : Ibuf.t;  (* ops of the block being recorded *)
  mutable cur_label : Cfg.label;
  mutable in_block : bool;
}

let no_variant = { label = -1; ops = [||]; dyn = 0; summarizable = false }

let recorder cfg =
  { cfg; vtab = Array.make 64 no_variant; n_vars = 0;
    v_hash = Ibuf.create 64; v_next = Ibuf.create 64;
    buckets = Array.make 64 (-1); seq = Ibuf.create 4096;
    cur = Ibuf.create 64; cur_label = 0; in_block = false }

let hash_ops label (b : Ibuf.t) =
  let h = ref (label + 0x2545f491) in
  for i = 0 to b.len - 1 do
    h := (!h lxor b.data.(i)) * 0x100000001b3
  done;
  !h lxor (!h lsr 29)

let same_ops (b : Ibuf.t) ops =
  Array.length ops = b.len
  &&
  let i = ref 0 in
  while !i < b.len && b.data.(!i) = ops.(!i) do incr i done;
  !i = b.len

let rec find_variant r h label id =
  if id < 0 then -1
  else
    let v = r.vtab.(id) in
    if r.v_hash.data.(id) = h && v.label = label && same_ops r.cur v.ops then
      id
    else find_variant r h label r.v_next.data.(id)

let rehash r =
  let nb = 2 * Array.length r.buckets in
  let buckets = Array.make nb (-1) in
  for id = r.n_vars - 1 downto 0 do
    let b = r.v_hash.data.(id) land (nb - 1) in
    r.v_next.data.(id) <- buckets.(b);
    buckets.(b) <- id
  done;
  r.buckets <- buckets

let add_variant r h =
  let ops = Ibuf.contents r.cur in
  let summarizable =
    Array.for_all
      (fun op ->
        let t = op_tag op in
        t <> tag_miss_load && t <> tag_miss_store && t <> tag_modeset)
      ops
  in
  let id = r.n_vars in
  if id = Array.length r.vtab then begin
    let vtab = Array.make (2 * id) no_variant in
    Array.blit r.vtab 0 vtab 0 id;
    r.vtab <- vtab
  end;
  (* A block runs its whole body once entered. *)
  let dyn = Array.length (Cfg.block r.cfg r.cur_label).Cfg.body in
  r.vtab.(id) <- { label = r.cur_label; ops; dyn; summarizable };
  r.n_vars <- id + 1;
  let b = h land (Array.length r.buckets - 1) in
  Ibuf.push r.v_hash h;
  Ibuf.push r.v_next r.buckets.(b);
  r.buckets.(b) <- id;
  if r.n_vars > 2 * Array.length r.buckets then rehash r;
  id

let flush_block r =
  if r.in_block then begin
    let h = hash_ops r.cur_label r.cur in
    let id =
      match
        find_variant r h r.cur_label
          r.buckets.(h land (Array.length r.buckets - 1))
      with
      | -1 -> add_variant r h
      | id -> id
    in
    Ibuf.push r.seq id;
    Ibuf.clear r.cur;
    r.in_block <- false
  end

let enter_block r ~label =
  flush_block r;
  r.cur_label <- label;
  r.in_block <- true

let record r tag payload = Ibuf.push r.cur ((payload lsl 3) lor tag)

type t = {
  variants : variant array;
  seq : int array;
  edge_of : int array;
  first_edge_pos : int array;
  n_edges : int;
  n_regs : int;
  dyn_instrs : int;
  l1 : Cache.stats;
  l2 : Cache.stats;
  registers : int array;
  memory : int array;
}

let create r ~dyn_instrs ~l1 ~l2 ~registers ~memory =
  flush_block r;
  let seq = Ibuf.contents r.seq in
  if Array.length seq = 0 then
    invalid_arg "Tape.create: empty recording";
  let variants = Array.sub r.vtab 0 r.n_vars in
  (* Incoming edges follow from consecutive labels; deriving them here
     rather than buffering them while recording keeps one growable
     buffer fewer alive at the recording's peak. *)
  let edge_of =
    Array.mapi
      (fun pos vid ->
        if pos = 0 then -1
        else
          match
            Cfg.edge_index_of r.cfg
              ~src:variants.(seq.(pos - 1)).label
              ~dst:variants.(vid).label
          with
          | idx -> idx
          | exception Not_found -> -1)
      seq
  in
  let n_edges = Array.length (Cfg.edges r.cfg) in
  let first_edge_pos = Array.make n_edges max_int in
  Array.iteri
    (fun pos e ->
      if e >= 0 && first_edge_pos.(e) = max_int then
        first_edge_pos.(e) <- pos)
    edge_of;
  { variants; seq; edge_of; first_edge_pos; n_edges;
    n_regs = Array.length registers; dyn_instrs; l1; l2;
    registers = Array.copy registers; memory = Array.copy memory }

let positions t = Array.length t.seq

let first_divergence t ~entry_changed ~edges =
  if entry_changed then Some 0
  else
    let p =
      List.fold_left
        (fun acc e ->
          if e >= 0 && e < t.n_edges then Int.min acc t.first_edge_pos.(e)
          else acc)
        max_int edges
    in
    if p = max_int then None else Some p
