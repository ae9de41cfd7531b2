exception Error of string * Token.pos

type state = {
  src : string;
  mutable off : int;
  mutable line : int;
  mutable col : int;
}

let peek st = if st.off < String.length st.src then Some st.src.[st.off] else None

let peek2 st =
  if st.off + 1 < String.length st.src then Some st.src.[st.off + 1] else None

let advance st =
  (match peek st with
  | Some '\n' ->
    st.line <- st.line + 1;
    st.col <- 1
  | Some _ -> st.col <- st.col + 1
  | None -> ());
  st.off <- st.off + 1

let pos st = { Token.line = st.line; col = st.col }

let is_digit c = c >= '0' && c <= '9'

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || is_digit c

let keyword = function
  | "int" -> Some Token.KW_INT
  | "if" -> Some Token.KW_IF
  | "else" -> Some Token.KW_ELSE
  | "while" -> Some Token.KW_WHILE
  | "for" -> Some Token.KW_FOR
  | "return" -> Some Token.KW_RETURN
  | _ -> None

let rec skip_trivia st =
  match peek st with
  | Some (' ' | '\t' | '\r' | '\n') ->
    advance st;
    skip_trivia st
  | Some '/' when peek2 st = Some '/' ->
    while peek st <> None && peek st <> Some '\n' do
      advance st
    done;
    skip_trivia st
  | Some '/' when peek2 st = Some '*' ->
    let start = pos st in
    advance st;
    advance st;
    let rec close () =
      match (peek st, peek2 st) with
      | Some '*', Some '/' ->
        advance st;
        advance st
      | Some _, _ ->
        advance st;
        close ()
      | None, _ -> raise (Error ("unterminated block comment", start))
    in
    close ();
    skip_trivia st
  | Some _ | None -> ()

let lex_number st =
  let p = pos st in
  let start = st.off in
  while (match peek st with Some c -> is_digit c | None -> false) do
    advance st
  done;
  let text = String.sub st.src start (st.off - start) in
  match int_of_string_opt text with
  | Some n -> { Token.kind = INT_LIT n; pos = p }
  | None -> raise (Error ("integer literal out of range: " ^ text, p))

let lex_ident st =
  let p = pos st in
  let start = st.off in
  while (match peek st with Some c -> is_ident_char c | None -> false) do
    advance st
  done;
  let text = String.sub st.src start (st.off - start) in
  let kind =
    match keyword text with Some k -> k | None -> Token.IDENT text
  in
  { Token.kind; pos = p }

let lex_operator st =
  let p = pos st in
  let single kind =
    advance st;
    { Token.kind; pos = p }
  in
  let double kind =
    advance st;
    advance st;
    { Token.kind; pos = p }
  in
  match (peek st, peek2 st) with
  | Some '&', Some '&' -> double Token.ANDAND
  | Some '|', Some '|' -> double Token.OROR
  | Some '=', Some '=' -> double Token.EQ
  | Some '!', Some '=' -> double Token.NE
  | Some '<', Some '=' -> double Token.LE
  | Some '>', Some '=' -> double Token.GE
  | Some '<', Some '<' -> double Token.SHL
  | Some '>', Some '>' -> double Token.SHR
  | Some '(', _ -> single Token.LPAREN
  | Some ')', _ -> single Token.RPAREN
  | Some '{', _ -> single Token.LBRACE
  | Some '}', _ -> single Token.RBRACE
  | Some '[', _ -> single Token.LBRACKET
  | Some ']', _ -> single Token.RBRACKET
  | Some ';', _ -> single Token.SEMI
  | Some ',', _ -> single Token.COMMA
  | Some '=', _ -> single Token.ASSIGN
  | Some '+', _ -> single Token.PLUS
  | Some '-', _ -> single Token.MINUS
  | Some '*', _ -> single Token.STAR
  | Some '/', _ -> single Token.SLASH
  | Some '%', _ -> single Token.PERCENT
  | Some '&', _ -> single Token.AMP
  | Some '|', _ -> single Token.PIPE
  | Some '^', _ -> single Token.CARET
  | Some '!', _ -> single Token.BANG
  | Some '<', _ -> single Token.LT
  | Some '>', _ -> single Token.GT
  | Some c, _ ->
    raise (Error (Printf.sprintf "unexpected character %C" c, p))
  | None, _ -> { Token.kind = EOF; pos = p }

let tokenize src =
  let st = { src; off = 0; line = 1; col = 1 } in
  let rec loop acc =
    skip_trivia st;
    match peek st with
    | None -> List.rev ({ Token.kind = EOF; pos = pos st } :: acc)
    | Some c when is_digit c -> loop (lex_number st :: acc)
    | Some c when is_ident_start c -> loop (lex_ident st :: acc)
    | Some _ -> loop (lex_operator st :: acc)
  in
  loop []
