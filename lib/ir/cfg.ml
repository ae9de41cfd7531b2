type label = int

type terminator =
  | Jump of label
  | Branch of Instr.reg * label * label
  | Halt

type block = {
  label : label;
  name : string;
  body : Instr.t array;
  term : terminator;
}

type edge = { src : label; dst : label }

type t = {
  entry : label;
  blocks : block array;
  edges : edge array;
  edge_base : int array;  (* per source: index of its first out-edge *)
  succ_slots : int array;
      (* two per source, [2 * src] and [2 * src + 1]: the out-edge
         targets in {!edges} order, -1 when absent (a terminator has at
         most two targets) *)
  succs : label list array;
  preds : label list array;
}

let term_targets = function
  | Jump l -> [ l ]
  | Branch (_, l1, l2) -> if l1 = l2 then [ l1 ] else [ l1; l2 ]
  | Halt -> []

let build_graph entry blocks =
  let n = Array.length blocks in
  let succs = Array.make n [] in
  let preds = Array.make n [] in
  let edge_list = ref [] in
  Array.iter
    (fun b ->
      let ts = term_targets b.term in
      succs.(b.label) <- ts;
      List.iter
        (fun dst ->
          preds.(dst) <- b.label :: preds.(dst);
          edge_list := { src = b.label; dst } :: !edge_list)
        ts)
    blocks;
  let edges = Array.of_list (List.rev !edge_list) in
  let edge_base = Array.make n 0 in
  let succ_slots = Array.make (2 * n) (-1) in
  Array.iteri
    (fun i e ->
      let k = 2 * e.src in
      if succ_slots.(k) < 0 then begin
        edge_base.(e.src) <- i;
        succ_slots.(k) <- e.dst
      end
      else succ_slots.(k + 1) <- e.dst)
    edges;
  { entry; blocks; edges; edge_base; succ_slots; succs; preds }

let entry g = g.entry

let blocks g = g.blocks

let block g l =
  if l < 0 || l >= Array.length g.blocks then
    invalid_arg (Printf.sprintf "Cfg.block: label %d out of range" l);
  g.blocks.(l)

let num_blocks g = Array.length g.blocks

let successors g l = g.succs.(l)

let predecessors g l = g.preds.(l)

let edges g = g.edges

let edge_index_of g ~src ~dst =
  if src < 0 || src >= Array.length g.edge_base || dst < 0 then
    raise Not_found;
  let k = 2 * src in
  if g.succ_slots.(k) = dst then g.edge_base.(src)
  else if g.succ_slots.(k + 1) = dst then g.edge_base.(src) + 1
  else raise Not_found

let edge_index g e = edge_index_of g ~src:e.src ~dst:e.dst

let validate g =
  let n = Array.length g.blocks in
  let ok = ref (Ok ()) in
  let fail fmt = Printf.ksprintf (fun s -> if !ok = Ok () then ok := Error s) fmt in
  if n = 0 then fail "empty CFG";
  if g.entry < 0 || g.entry >= n then fail "entry label %d out of range" g.entry;
  Array.iteri
    (fun i b ->
      if b.label <> i then fail "block %d carries label %d" i b.label;
      List.iter
        (fun t ->
          if t < 0 || t >= n then
            fail "block %d targets out-of-range label %d" i t)
        (term_targets b.term))
    g.blocks;
  !ok

let map_blocks f g =
  let blocks = Array.map f g.blocks in
  Array.iteri
    (fun i b ->
      if b.label <> i then invalid_arg "Cfg.map_blocks: label changed")
    blocks;
  build_graph g.entry blocks

let pp_term ppf = function
  | Jump l -> Format.fprintf ppf "jump L%d" l
  | Branch (r, l1, l2) -> Format.fprintf ppf "br r%d ? L%d : L%d" r l1 l2
  | Halt -> Format.pp_print_string ppf "halt"

let pp ppf g =
  Format.fprintf ppf "@[<v>entry: L%d@," g.entry;
  Array.iter
    (fun b ->
      Format.fprintf ppf "L%d (%s):@," b.label b.name;
      Array.iter (fun i -> Format.fprintf ppf "  %a@," Instr.pp i) b.body;
      Format.fprintf ppf "  %a@," pp_term b.term)
    g.blocks;
  Format.fprintf ppf "@]"

let to_dot g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph cfg {\n";
  Array.iter
    (fun b ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d [shape=box,label=\"L%d %s (%d instrs)\"];\n"
           b.label b.label b.name (Array.length b.body)))
    g.blocks;
  Array.iter
    (fun e -> Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" e.src e.dst))
    g.edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

module Builder = struct
  type pending = {
    p_label : label;
    p_name : string;
    mutable p_body : Instr.t list;  (* reversed *)
    mutable p_term : terminator option;
  }

  type t = { mutable pending : pending list (* reversed *); mutable count : int }

  let create () = { pending = []; count = 0 }

  let add_block ?name b =
    let l = b.count in
    let p_name = match name with Some n -> n | None -> Printf.sprintf "bb%d" l in
    b.pending <- { p_label = l; p_name; p_body = []; p_term = None } :: b.pending;
    b.count <- l + 1;
    l

  let find b l =
    match List.find_opt (fun p -> p.p_label = l) b.pending with
    | Some p -> p
    | None -> invalid_arg (Printf.sprintf "Cfg.Builder: unknown block %d" l)

  let push b l i =
    let p = find b l in
    p.p_body <- i :: p.p_body

  let set_term b l t =
    let p = find b l in
    match p.p_term with
    | Some _ ->
      invalid_arg (Printf.sprintf "Cfg.Builder: block %d already terminated" l)
    | None -> p.p_term <- Some t

  let finish b ~entry =
    let blocks =
      List.rev_map
        (fun p ->
          match p.p_term with
          | None ->
            invalid_arg
              (Printf.sprintf "Cfg.Builder: block %d lacks a terminator"
                 p.p_label)
          | Some term ->
            { label = p.p_label; name = p.p_name;
              body = Array.of_list (List.rev p.p_body); term })
        b.pending
    in
    let blocks = Array.of_list blocks in
    Array.sort (fun a b -> compare a.label b.label) blocks;
    let g = build_graph entry blocks in
    match validate g with
    | Ok () -> g
    | Error msg -> invalid_arg ("Cfg.Builder.finish: " ^ msg)
end
