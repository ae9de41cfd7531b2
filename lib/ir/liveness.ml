module Reg_set = Set.Make (Int)

type t = {
  cfg : Cfg.t;
  l_in : Reg_set.t array;
  l_out : Reg_set.t array;
  exit_live : Reg_set.t;
}

let term_uses = function
  | Cfg.Branch (r, _, _) -> [ r ]
  | Cfg.Jump _ | Cfg.Halt -> []

(* The final architectural state is the program's observable output, so
   a [Halt] keeps every register of the program live. *)
let universe cfg =
  Array.fold_left
    (fun s (b : Cfg.block) ->
      let s =
        Array.fold_left
          (fun s i ->
            List.fold_left (fun s r -> Reg_set.add r s) s
              (Instr.defs i @ Instr.uses i))
          s b.body
      in
      match b.term with
      | Cfg.Branch (r, _, _) -> Reg_set.add r s
      | Cfg.Jump _ | Cfg.Halt -> s)
    Reg_set.empty (Cfg.blocks cfg)

(* use/def through a whole block, backwards:
   in = (out - defs) + uses, respecting instruction order. *)
let transfer (blk : Cfg.block) out =
  let acc = ref (List.fold_left (fun s r -> Reg_set.add r s) out (term_uses blk.term)) in
  for i = Array.length blk.body - 1 downto 0 do
    let ins = blk.body.(i) in
    acc := List.fold_left (fun s r -> Reg_set.remove r s) !acc (Instr.defs ins);
    acc := List.fold_left (fun s r -> Reg_set.add r s) !acc (Instr.uses ins)
  done;
  !acc

let compute ?exit_live cfg =
  let n = Cfg.num_blocks cfg in
  let exit_live =
    match exit_live with
    | Some regs -> Reg_set.of_list regs
    | None -> universe cfg
  in
  let l_in = Array.make n Reg_set.empty in
  let l_out = Array.make n Reg_set.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    (* Backward problem: iterate blocks in reverse label order (a decent
       approximation of reverse topological order for our builder). *)
    for l = n - 1 downto 0 do
      let blk = Cfg.block cfg l in
      let out =
        if blk.term = Cfg.Halt then exit_live
        else
          List.fold_left
            (fun s succ -> Reg_set.union s l_in.(succ))
            Reg_set.empty (Cfg.successors cfg l)
      in
      let inn = transfer blk out in
      if not (Reg_set.equal out l_out.(l) && Reg_set.equal inn l_in.(l))
      then begin
        l_out.(l) <- out;
        l_in.(l) <- inn;
        changed := true
      end
    done
  done;
  { cfg; l_in; l_out; exit_live }

let live_in t l = Reg_set.elements t.l_in.(l)

let live_after t l i r =
  let blk = Cfg.block t.cfg l in
  let len = Array.length blk.body in
  if i < 0 || i >= len then invalid_arg "Liveness.live_after: index";
  (* Walk forward from i+1 within the block; fall back to block-out. *)
  let rec scan j =
    if j >= len then
      (blk.term = Cfg.Halt && Reg_set.mem r t.exit_live)
      || List.mem r (term_uses blk.term)
      || Reg_set.mem r t.l_out.(l)
    else begin
      let ins = blk.body.(j) in
      if List.mem r (Instr.uses ins) then true
      else if List.mem r (Instr.defs ins) then false
      else scan (j + 1)
    end
  in
  scan (i + 1)
