module Reg_map = Map.Make (Int)

(* Abstract register contents within one block. *)
type value = Const of int | Copy_of of Instr.reg

let constant_fold cfg =
  Cfg.map_blocks
    (fun blk ->
      let env = ref Reg_map.empty in
      let lookup r =
        match Reg_map.find_opt r !env with
        | Some (Const c) -> Some c
        | Some (Copy_of _) | None -> None
      in
      (* Resolve a source register through copy chains. *)
      let rec resolve r =
        match Reg_map.find_opt r !env with
        | Some (Copy_of r') when r' <> r -> resolve r'
        | _ -> r
      in
      let kill rd =
        (* rd changes: drop its binding and any copies of it. *)
        env :=
          Reg_map.filter
            (fun _ v -> match v with Copy_of r -> r <> rd | Const _ -> true)
            (Reg_map.remove rd !env)
      in
      let rewritten = ref [] in
      let emit i = rewritten := i :: !rewritten in
      Array.iter
        (fun (i : Instr.t) ->
          match i with
          | Instr.Li (rd, v) ->
            kill rd;
            env := Reg_map.add rd (Const v) !env;
            emit i
          | Instr.Mov (rd, rs) ->
            let rs = resolve rs in
            (match lookup rs with
            | Some c ->
              kill rd;
              env := Reg_map.add rd (Const c) !env;
              emit (Instr.Li (rd, c))
            | None ->
              kill rd;
              if rs <> rd then env := Reg_map.add rd (Copy_of rs) !env;
              emit (Instr.Mov (rd, rs)))
          | Instr.Binop (op, rd, rs1, rs2) -> (
            let rs1 = resolve rs1 and rs2 = resolve rs2 in
            match (lookup rs1, lookup rs2) with
            | Some a, Some b ->
              let v = Instr.eval_binop op a b in
              kill rd;
              env := Reg_map.add rd (Const v) !env;
              emit (Instr.Li (rd, v))
            | _ ->
              kill rd;
              emit (Instr.Binop (op, rd, rs1, rs2)))
          | Instr.Load (rd, rs, off) ->
            let rs = resolve rs in
            kill rd;
            emit (Instr.Load (rd, rs, off))
          | Instr.Store (rv, rs, off) ->
            emit (Instr.Store (resolve rv, resolve rs, off))
          | Instr.Nop | Instr.Modeset _ -> emit i)
        blk.Cfg.body;
      (* Constant branches become jumps. *)
      let term =
        match blk.Cfg.term with
        | Cfg.Branch (r, taken, fallthrough) -> (
          match lookup (resolve r) with
          | Some c -> Cfg.Jump (if c <> 0 then taken else fallthrough)
          | None -> Cfg.Branch (resolve r, taken, fallthrough))
        | t -> t
      in
      { blk with body = Array.of_list (List.rev !rewritten); term })
    cfg

let is_pure (i : Instr.t) =
  match i with
  | Instr.Li _ | Instr.Mov _ | Instr.Binop _ -> true
  | Instr.Load _ ->
    (* Loads are observationally pure here (no I/O, no faults on valid
       programs) but they shape cache and timing state; keep them. *)
    false
  | Instr.Store _ | Instr.Nop | Instr.Modeset _ -> false

let dead_code ?exit_live cfg =
  let live = Liveness.compute ?exit_live cfg in
  Cfg.map_blocks
    (fun blk ->
      let keep =
        Array.to_list
          (Array.mapi
             (fun idx (i : Instr.t) ->
               let dead =
                 is_pure i
                 && (match Instr.defs i with
                    | [ rd ] -> not (Liveness.live_after live blk.Cfg.label idx rd)
                    | _ -> false)
               in
               if dead then None else Some i)
             blk.Cfg.body)
      in
      { blk with body = Array.of_list (List.filter_map Fun.id keep) })
    cfg

let instruction_count cfg =
  Array.fold_left
    (fun acc (b : Cfg.block) -> acc + Array.length b.body)
    0 (Cfg.blocks cfg)

let optimize ?exit_live cfg =
  let rec go n cfg =
    if n <= 0 then cfg
    else begin
      let cfg' = dead_code ?exit_live (constant_fold cfg) in
      if instruction_count cfg' = instruction_count cfg then cfg'
      else go (n - 1) cfg'
    end
  in
  go 3 cfg
