open Dvs_lang
open Dvs_ir

(* Compile a program, run it on the reference interpreter, return the
   value of a scalar variable. *)
let run_scalar ?(memory_extra = 0) src name =
  let cfg, layout = Lower.compile_string src in
  let mem = Array.make (layout.Lower.memory_words + memory_extra) 0 in
  let r = Interp.run cfg ~memory:mem in
  let reg = List.assoc name layout.Lower.scalars in
  r.Interp.registers.(reg)

let run_with_memory src init =
  let cfg, layout = Lower.compile_string src in
  let mem = Array.make layout.Lower.memory_words 0 in
  Array.blit init 0 mem 0 (Array.length init);
  let r = Interp.run cfg ~memory:mem in
  (r, layout)

let test_lexer_basic () =
  let toks = Lexer.tokenize "int x; x = 40 + 2; // comment\n" in
  let kinds = List.map (fun (t : Token.t) -> t.Token.kind) toks in
  Alcotest.(check bool) "token stream" true
    (kinds
    = [ Token.KW_INT; Token.IDENT "x"; Token.SEMI; Token.IDENT "x";
        Token.ASSIGN; Token.INT_LIT 40; Token.PLUS; Token.INT_LIT 2;
        Token.SEMI; Token.EOF ])

let test_lexer_comments_and_ops () =
  let toks = Lexer.tokenize "/* multi\nline */ a <= b << 2 && !c" in
  let kinds = List.map (fun (t : Token.t) -> t.Token.kind) toks in
  Alcotest.(check bool) "ops" true
    (kinds
    = [ Token.IDENT "a"; Token.LE; Token.IDENT "b"; Token.SHL;
        Token.INT_LIT 2; Token.ANDAND; Token.BANG; Token.IDENT "c";
        Token.EOF ])

let test_lexer_error () =
  match Lexer.tokenize "x = @;" with
  | exception Lexer.Error (_, pos) ->
    Alcotest.(check int) "line" 1 pos.Token.line
  | _ -> Alcotest.fail "expected a lexer error"

let test_parser_precedence () =
  (* 2 + 3 * 4 == 14 must parse as 2 + (3*4). *)
  Alcotest.(check int) "precedence" 1
    (run_scalar "int r; r = 2 + 3 * 4 == 14;" "r")

let test_parser_error_position () =
  match Parser.parse "int x; x = ;" with
  | exception Parser.Error (_, pos) ->
    Alcotest.(check int) "column" 12 pos.Token.col
  | _ -> Alcotest.fail "expected a parse error"

let test_typecheck_undeclared () =
  match Lower.compile_string "x = 1;" with
  | exception Typecheck.Error msg ->
    Alcotest.(check bool) "mentions x" true
      (String.length msg > 0 && String.index_opt msg 'x' <> None)
  | _ -> Alcotest.fail "expected a typecheck error"

let test_typecheck_shape_mismatch () =
  (match Lower.compile_string "int a[4]; a = 1;" with
  | exception Typecheck.Error _ -> ()
  | _ -> Alcotest.fail "array assigned as scalar should fail");
  match Lower.compile_string "int s; s[0] = 1;" with
  | exception Typecheck.Error _ -> ()
  | _ -> Alcotest.fail "scalar indexed should fail"

let test_typecheck_static_bounds () =
  match Lower.compile_string "int a[4]; a[4] = 1;" with
  | exception Typecheck.Error _ -> ()
  | _ -> Alcotest.fail "static out-of-bounds should fail"

let test_arith () =
  Alcotest.(check int) "arith" ((40 / 3) + (7 mod 4) - (2 * 5))
    (run_scalar "int r; r = 40 / 3 + 7 % 4 - 2 * 5;" "r")

let test_logical_and_comparisons () =
  Alcotest.(check int) "true" 1
    (run_scalar "int r; r = (3 < 4) && (4 >= 4) || 0;" "r");
  Alcotest.(check int) "not" 1 (run_scalar "int r; r = !(2 > 7);" "r");
  Alcotest.(check int) "neg" (-5) (run_scalar "int r; r = -5;" "r")

let test_if_else () =
  let src = "int r; int x; x = 7; if (x > 5) { r = 1; } else { r = 2; }" in
  Alcotest.(check int) "then" 1 (run_scalar src "r");
  let src = "int r; int x; x = 3; if (x > 5) { r = 1; } else { r = 2; }" in
  Alcotest.(check int) "else" 2 (run_scalar src "r")

let test_else_if_chain () =
  let src =
    "int r; int x; x = 2;\n\
     if (x == 1) { r = 10; } else if (x == 2) { r = 20; } else { r = 30; }"
  in
  Alcotest.(check int) "chain" 20 (run_scalar src "r")

let test_while_loop () =
  let src = "int s; int i; i = 0; s = 0; while (i < 10) { s = s + i; i = i + 1; }" in
  Alcotest.(check int) "sum 0..9" 45 (run_scalar src "s")

let test_for_loop () =
  let src = "int s; int i; s = 0; for (i = 1; i <= 5; i = i + 1) { s = s + i * i; }" in
  Alcotest.(check int) "sum of squares" 55 (run_scalar src "s")

let test_arrays () =
  let src =
    "int a[8]; int s; int i;\n\
     for (i = 0; i < 8; i = i + 1) { a[i] = i * 2; }\n\
     s = 0;\n\
     for (i = 0; i < 8; i = i + 1) { s = s + a[i]; }"
  in
  Alcotest.(check int) "array sum" 56 (run_scalar src "s")

let test_array_memory_state () =
  let src = "int a[4]; a[0] = 1; a[1] = a[0] + 1; a[2] = a[1] + 1; a[3] = a[2] + 1;" in
  let r, layout = run_with_memory src [||] in
  let base = Lower.array_base layout "a" in
  Alcotest.(check (list int)) "memory" [ 1; 2; 3; 4 ]
    (List.init 4 (fun i -> r.Interp.memory.(base + i)))

let test_nested_loops_matrix () =
  (* 4x4 matrix multiply of small known matrices: C = A * B where
     A = I scaled by 2, B[i][j] = i + j; C[i][j] = 2 * (i + j). *)
  let src =
    "int a[16]; int b[16]; int c[16]; int i; int j; int k; int acc;\n\
     for (i = 0; i < 4; i = i + 1) {\n\
     \  for (j = 0; j < 4; j = j + 1) {\n\
     \    a[i * 4 + j] = (i == j) * 2;\n\
     \    b[i * 4 + j] = i + j;\n\
     \  }\n\
     }\n\
     for (i = 0; i < 4; i = i + 1) {\n\
     \  for (j = 0; j < 4; j = j + 1) {\n\
     \    acc = 0;\n\
     \    for (k = 0; k < 4; k = k + 1) {\n\
     \      acc = acc + a[i * 4 + k] * b[k * 4 + j];\n\
     \    }\n\
     \    c[i * 4 + j] = acc;\n\
     \  }\n\
     }"
  in
  let r, layout = run_with_memory src [||] in
  let base = Lower.array_base layout "c" in
  let ok = ref true in
  for i = 0 to 3 do
    for j = 0 to 3 do
      if r.Interp.memory.(base + (i * 4) + j) <> 2 * (i + j) then ok := false
    done
  done;
  Alcotest.(check bool) "matmul" true !ok

let test_cfg_wellformed () =
  let src =
    "int x; int i; x = 0;\n\
     for (i = 0; i < 3; i = i + 1) { if (i % 2) { x = x + i; } }"
  in
  let cfg, _ = Lower.compile_string src in
  (match Cfg.validate cfg with
  | Ok () -> ()
  | Error m -> Alcotest.failf "invalid CFG: %s" m);
  (* Every non-entry block is reachable through edges. *)
  Alcotest.(check bool) "has edges" true (Array.length (Cfg.edges cfg) > 0)

let test_edge_index_roundtrip () =
  let src = "int x; if (x) { x = 1; } else { x = 2; }" in
  let cfg, _ = Lower.compile_string src in
  Array.iteri
    (fun i e -> Alcotest.(check int) "roundtrip" i (Cfg.edge_index cfg e))
    (Cfg.edges cfg)

(* The successor-slot index agrees with [Cfg.edges] order on every
   workload CFG, and anything that is not an edge raises [Not_found]. *)
let test_edge_index_workloads () =
  List.iter
    (fun (w : Dvs_workloads.Workload.t) ->
      let cfg, _, _ =
        Dvs_workloads.Workload.load w
          ~input:(Dvs_workloads.Workload.default_input w)
      in
      let edges = Cfg.edges cfg in
      Array.iteri
        (fun i e ->
          Alcotest.(check int) "edge order" i (Cfg.edge_index cfg e);
          Alcotest.(check int) "labelled lookup" i
            (Cfg.edge_index_of cfg ~src:e.Cfg.src ~dst:e.Cfg.dst))
        edges;
      let n = Cfg.num_blocks cfg in
      let is_edge src dst =
        Array.exists (fun e -> e.Cfg.src = src && e.Cfg.dst = dst) edges
      in
      for src = -1 to n do
        for dst = -1 to n do
          if not (is_edge src dst) then
            match Cfg.edge_index cfg { Cfg.src; dst } with
            | exception Not_found -> ()
            | i ->
              Alcotest.failf "%s: non-edge %d -> %d got index %d"
                w.Dvs_workloads.Workload.name src dst i
        done
      done)
    Dvs_workloads.Workload.all

let test_builder_rejects_unterminated () =
  let b = Cfg.Builder.create () in
  let l = Cfg.Builder.add_block b in
  match Cfg.Builder.finish b ~entry:l with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected failure on missing terminator"

let test_interp_out_of_fuel () =
  let src = "int x; while (1) { x = x + 1; }" in
  let cfg, _ = Lower.compile_string src in
  match Interp.run ~fuel:1000 cfg ~memory:[||] with
  | exception Interp.Out_of_fuel -> ()
  | _ -> Alcotest.fail "expected out-of-fuel"

(* Random expression round-trip: generate an AST expression, evaluate it
   directly, and compare with the compiled result. *)
let expr_gen =
  QCheck.Gen.(
    let leaf = map (fun n -> Ast.Int n) (int_range (-50) 50) in
    let op =
      oneofl
        [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Rem; Ast.Lt; Ast.Le;
          Ast.Gt; Ast.Ge; Ast.Eq; Ast.Ne; Ast.Band; Ast.Bor; Ast.Bxor;
          Ast.Land; Ast.Lor ]
    in
    sized (fun n ->
        fix
          (fun self n ->
            if n <= 1 then leaf
            else
              frequency
                [ (1, leaf);
                  (1, map (fun e -> Ast.Unop (Ast.Neg, e)) (self (n / 2)));
                  (1, map (fun e -> Ast.Unop (Ast.Not, e)) (self (n / 2)));
                  ( 4,
                    map3
                      (fun op a b -> Ast.Binop (op, a, b))
                      op (self (n / 2)) (self (n / 2)) ) ])
          (Int.min n 20)))

let rec eval_ast = function
  | Ast.Int n -> n
  | Ast.Var _ | Ast.Index _ | Ast.Call _ -> 0
  | Ast.Unop (Ast.Neg, e) -> -eval_ast e
  | Ast.Unop (Ast.Not, e) -> if eval_ast e = 0 then 1 else 0
  | Ast.Binop (op, a, b) ->
    let x = eval_ast a and y = eval_ast b in
    let b2i c = if c then 1 else 0 in
    (match op with
    | Ast.Add -> x + y
    | Ast.Sub -> x - y
    | Ast.Mul -> x * y
    | Ast.Div -> if y = 0 then 0 else x / y
    | Ast.Rem -> if y = 0 then 0 else x mod y
    | Ast.Lt -> b2i (x < y)
    | Ast.Le -> b2i (x <= y)
    | Ast.Gt -> b2i (x > y)
    | Ast.Ge -> b2i (x >= y)
    | Ast.Eq -> b2i (x = y)
    | Ast.Ne -> b2i (x <> y)
    | Ast.Land -> b2i (x <> 0 && y <> 0)
    | Ast.Lor -> b2i (x <> 0 || y <> 0)
    | Ast.Band -> x land y
    | Ast.Bor -> x lor y
    | Ast.Bxor -> x lxor y
    | Ast.Shl -> x lsl (y land 62)
    | Ast.Shr -> x asr (y land 62))

let qcheck_compiled_expr_matches_eval =
  QCheck.Test.make ~name:"compiled expressions match direct evaluation"
    ~count:300
    (QCheck.make expr_gen)
    (fun e ->
      let prog =
        { Ast.decls = [ { Ast.d_name = "r"; d_size = None } ];
          funcs = []; body = [ Ast.Assign ("r", None, e) ] }
      in
      let cfg, layout = Lower.compile prog in
      let r = Interp.run cfg ~memory:[||] in
      let reg = List.assoc "r" layout.Lower.scalars in
      r.Interp.registers.(reg) = eval_ast e)

(* Pretty-printer round-trip: print a random expression program, reparse,
   recompile, same result. *)
let qcheck_pp_roundtrip =
  QCheck.Test.make ~name:"pretty-print/reparse round-trip" ~count:200
    (QCheck.make expr_gen)
    (fun e ->
      let prog =
        { Ast.decls = [ { Ast.d_name = "r"; d_size = None } ];
          funcs = []; body = [ Ast.Assign ("r", None, e) ] }
      in
      let printed = Format.asprintf "%a" Ast.pp_program prog in
      let reparsed = Parser.parse printed in
      let cfg, layout = Lower.compile reparsed in
      let r = Interp.run cfg ~memory:[||] in
      let reg = List.assoc "r" layout.Lower.scalars in
      r.Interp.registers.(reg) = eval_ast e)

(* --- typed failure on hostile input ------------------------------------ *)

(* A literal past [max_int] is a lexer error at its position, not an
   [int_of_string] failure escaping from the compiler. *)
let test_literal_out_of_range () =
  (match Lower.compile_string "int x; x = 4611686018427387903;" with
  | _ -> ()
  | exception e ->
    Alcotest.failf "max_int literal raised %s" (Printexc.to_string e));
  match Lower.compile_string "int x;\nx = 4611686018427387904;" with
  | exception Lexer.Error (_, pos) ->
    Alcotest.(check (pair int int))
      "at the literal" (2, 5)
      (pos.Token.line, pos.Token.col)
  | exception e ->
    Alcotest.failf "raised %s, not Lexer.Error" (Printexc.to_string e)
  | _ -> Alcotest.fail "an out-of-range literal compiled"

let sources =
  lazy
    (Array.map
       (fun name ->
         (Dvs_workloads.Workload.find name).Dvs_workloads.Workload.source)
       [| "adpcm"; "epic"; "gsm"; "mpeg"; "ghostscript"; "mpg123" |])

let soup_tokens =
  [| "int"; "if"; "else"; "while"; "for"; "return"; "x"; "a"; "f"; "main";
     "("; ")"; "{"; "}"; "["; "]"; ";"; ","; "="; "=="; "!="; "<"; "<=";
     ">"; ">="; "<<"; ">>"; "+"; "-"; "*"; "/"; "%"; "&"; "|"; "^"; "&&";
     "||"; "!"; "0"; "1"; "42"; "4611686018427387903";
     "4611686018427387904"; "99999999999999999999999999"; "/*"; "*/"; "//";
     "\n"; " "; "@"; "$"; "\000" |]

(* Hostile MiniC: a workload source cut short, one with 1-4 bytes
   overwritten, a soup of tokens (overlong literals and unterminated
   comments among them), or random bytes. *)
let hostile_gen =
  QCheck.Gen.(
    let source = map (fun i -> (Lazy.force sources).(i)) (int_bound 5) in
    let truncated =
      source >>= fun src ->
      map (fun n -> String.sub src 0 n) (int_bound (String.length src))
    in
    let mutated =
      source >>= fun src ->
      list_size (1 -- 4) (pair (int_bound (String.length src - 1)) char)
      >|= fun edits ->
      let b = Bytes.of_string src in
      List.iter (fun (i, c) -> Bytes.set b i c) edits;
      Bytes.to_string b
    in
    let soup =
      list_size (0 -- 60) (oneofa soup_tokens) >|= String.concat " "
    in
    let random_bytes = string_size ~gen:char (0 -- 200) in
    frequency
      [ (3, truncated); (3, mutated); (3, soup); (1, random_bytes) ])

let compiles_or_fails_typed src =
  match Lower.compile_string src with
  | _ -> true
  | exception (Parser.Error _ | Lexer.Error _ | Typecheck.Error _) -> true

let qcheck_hostile_minic =
  QCheck.Test.make
    ~name:"hostile MiniC compiles or fails with a typed error" ~count:400
    (QCheck.make ~print:(Printf.sprintf "%S") hostile_gen)
    compiles_or_fails_typed

let suite =
  [ Alcotest.test_case "lexer basic" `Quick test_lexer_basic;
    Alcotest.test_case "lexer comments and ops" `Quick
      test_lexer_comments_and_ops;
    Alcotest.test_case "lexer error" `Quick test_lexer_error;
    Alcotest.test_case "parser precedence" `Quick test_parser_precedence;
    Alcotest.test_case "parser error position" `Quick
      test_parser_error_position;
    Alcotest.test_case "typecheck undeclared" `Quick test_typecheck_undeclared;
    Alcotest.test_case "typecheck shape mismatch" `Quick
      test_typecheck_shape_mismatch;
    Alcotest.test_case "typecheck static bounds" `Quick
      test_typecheck_static_bounds;
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "logical and comparisons" `Quick
      test_logical_and_comparisons;
    Alcotest.test_case "if/else" `Quick test_if_else;
    Alcotest.test_case "else-if chain" `Quick test_else_if_chain;
    Alcotest.test_case "while loop" `Quick test_while_loop;
    Alcotest.test_case "for loop" `Quick test_for_loop;
    Alcotest.test_case "arrays" `Quick test_arrays;
    Alcotest.test_case "array memory state" `Quick test_array_memory_state;
    Alcotest.test_case "nested loops (matmul)" `Quick
      test_nested_loops_matrix;
    Alcotest.test_case "cfg well-formed" `Quick test_cfg_wellformed;
    Alcotest.test_case "edge index round-trip" `Quick
      test_edge_index_roundtrip;
    Alcotest.test_case "edge index on workload CFGs" `Quick
      test_edge_index_workloads;
    Alcotest.test_case "builder rejects unterminated" `Quick
      test_builder_rejects_unterminated;
    Alcotest.test_case "interp out of fuel" `Quick test_interp_out_of_fuel;
    QCheck_alcotest.to_alcotest qcheck_compiled_expr_matches_eval;
    QCheck_alcotest.to_alcotest qcheck_pp_roundtrip;
    Alcotest.test_case "out-of-range literal is a lexer error" `Quick
      test_literal_out_of_range;
    QCheck_alcotest.to_alcotest qcheck_hostile_minic ]
