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
  edge_bits : int;
  mutable vtab : variant array;  (* by id; the first [n_vars] are live *)
  mutable n_vars : int;
  v_hash : Ibuf.t;  (* per variant: full hash *)
  v_next : Ibuf.t;  (* per variant: next id in its bucket, -1 at end *)
  mutable buckets : int array;  (* head id per bucket, -1 when empty *)
  steps : Ibuf.t;  (* packed (variant, incoming edge) per position *)
  cur : Ibuf.t;  (* ops of the block being recorded *)
  mutable cur_label : Cfg.label;
  mutable prev_label : Cfg.label;  (* last sealed block; -1 before any *)
  mutable in_block : bool;
}

let no_variant = { label = -1; ops = [||]; dyn = 0; summarizable = false }

(* Bits needed to hold [0 .. n]: a step's low field is the incoming edge
   plus one, with 0 for the program entry. *)
let rec bits_for n = if n = 0 then 0 else 1 + bits_for (n lsr 1)

let recorder cfg =
  { cfg; edge_bits = bits_for (Array.length (Cfg.edges cfg));
    vtab = Array.make 64 no_variant; n_vars = 0;
    v_hash = Ibuf.create 64; v_next = Ibuf.create 64;
    buckets = Array.make 64 (-1); steps = Ibuf.create 4096;
    cur = Ibuf.create 64; cur_label = 0; prev_label = -1; in_block = false }

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
  (* A step is [(id lsl edge_bits) lor (edge + 1)] in a non-negative
     int. *)
  if id lsr (Sys.int_size - 1 - r.edge_bits) <> 0 then
    invalid_arg "Tape: variant index does not fit a packed step";
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
    (* The incoming edge follows from the previous block's label; the
       program entry, like any pair that is no CFG edge, stores 0. *)
    let edge1 =
      if r.prev_label < 0 then 0
      else
        match Cfg.edge_index_of r.cfg ~src:r.prev_label ~dst:r.cur_label with
        | e -> e + 1
        | exception Not_found -> 0
    in
    Ibuf.push r.steps ((id lsl r.edge_bits) lor edge1);
    Ibuf.clear r.cur;
    r.prev_label <- r.cur_label;
    r.in_block <- false
  end

let enter_block r ~label =
  flush_block r;
  r.cur_label <- label;
  r.in_block <- true

let record r tag payload = Ibuf.push r.cur ((payload lsl 3) lor tag)

type t = {
  variants : variant array;
  steps : int array;
  edge_bits : int;
  first_edge_pos : int array;
  registers : int array;
  memory : int array;
}

let create r ~registers ~memory =
  flush_block r;
  let steps = Ibuf.contents r.steps in
  if Array.length steps = 0 then
    invalid_arg "Tape.create: empty recording";
  let mask = (1 lsl r.edge_bits) - 1 in
  let first_edge_pos = Array.make (Array.length (Cfg.edges r.cfg)) max_int in
  Array.iteri
    (fun pos step ->
      let e = (step land mask) - 1 in
      if e >= 0 && first_edge_pos.(e) = max_int then
        first_edge_pos.(e) <- pos)
    steps;
  { variants = Array.sub r.vtab 0 r.n_vars; steps; edge_bits = r.edge_bits;
    first_edge_pos; registers; memory }

let positions t = Array.length t.steps

let n_edges t = Array.length t.first_edge_pos

let variant_at t p = t.steps.(p) lsr t.edge_bits

let edge_at t p = (t.steps.(p) land ((1 lsl t.edge_bits) - 1)) - 1

let first_divergence t ~entry_changed ~edges =
  if entry_changed then Some 0
  else
    let n_edges = n_edges t in
    let p =
      List.fold_left
        (fun acc e ->
          if e >= 0 && e < n_edges then Int.min acc t.first_edge_pos.(e)
          else acc)
        max_int edges
    in
    if p = max_int then None else Some p
