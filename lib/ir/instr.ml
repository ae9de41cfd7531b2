type reg = int

type binop =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor | Shl | Shr
  | Slt | Sle | Seq | Sne

type t =
  | Li of reg * int
  | Mov of reg * reg
  | Binop of binop * reg * reg * reg
  | Load of reg * reg * int
  | Store of reg * reg * int
  | Nop
  | Modeset of int

let latency = function
  | Li _ | Mov _ -> 1
  | Binop ((Mul : binop), _, _, _) -> 3
  | Binop ((Div | Rem), _, _, _) -> 12
  | Binop (_, _, _, _) -> 1
  | Load _ | Store _ -> 1
  | Nop -> 1
  | Modeset _ -> 0

let defs = function
  | Li (rd, _) | Mov (rd, _) | Binop (_, rd, _, _) | Load (rd, _, _) -> [ rd ]
  | Store _ | Nop | Modeset _ -> []

let uses = function
  | Li _ | Nop | Modeset _ -> []
  | Mov (_, rs) -> [ rs ]
  | Binop (_, _, rs1, rs2) -> [ rs1; rs2 ]
  | Load (_, rs, _) -> [ rs ]
  | Store (rv, rs, _) -> [ rv; rs ]

let max_reg i =
  List.fold_left Int.max (-1) (defs i @ uses i)

let eval_binop op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then 0 else a / b
  | Rem -> if b = 0 then 0 else a mod b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> a lsl (b land 62)
  | Shr -> a asr (b land 62)
  | Slt -> if a < b then 1 else 0
  | Sle -> if a <= b then 1 else 0
  | Seq -> if a = b then 1 else 0
  | Sne -> if a <> b then 1 else 0

let binop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Rem -> "rem"
  | And -> "and" | Or -> "or" | Xor -> "xor" | Shl -> "shl" | Shr -> "shr"
  | Slt -> "slt" | Sle -> "sle" | Seq -> "seq" | Sne -> "sne"

let pp ppf = function
  | Li (rd, v) -> Format.fprintf ppf "li r%d, %d" rd v
  | Mov (rd, rs) -> Format.fprintf ppf "mov r%d, r%d" rd rs
  | Binop (op, rd, rs1, rs2) ->
    Format.fprintf ppf "%s r%d, r%d, r%d" (binop_name op) rd rs1 rs2
  | Load (rd, rs, off) -> Format.fprintf ppf "ld r%d, %d(r%d)" rd off rs
  | Store (rv, rs, off) -> Format.fprintf ppf "st r%d, %d(r%d)" rv off rs
  | Nop -> Format.pp_print_string ppf "nop"
  | Modeset m -> Format.fprintf ppf "modeset %d" m
