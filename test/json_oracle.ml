(* The character-at-a-time JSON parser that [Dvs_obs.Json.of_string]
   replaced, kept verbatim as the oracle for the index scanner: on every
   input this parser accepts, the scanner must return the same tree.  It
   peeks through an option per character, builds every string in a
   Buffer and every number through [String.sub] + [int_of_string], and
   reads a [\uXXXX] escape with [int_of_string "0x..."], which raises
   [Failure] on a non-hex escape and accepts ['_'] inside one. *)

open Dvs_obs.Json

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" lit)
  in
  let add_utf8 buf cp =
    (* Encode a Unicode code point as UTF-8. *)
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xf0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let h = int_of_string ("0x" ^ String.sub s !pos 4) in
    pos := !pos + 4;
    h
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char buf '"'; advance ()
        | Some '\\' -> Buffer.add_char buf '\\'; advance ()
        | Some '/' -> Buffer.add_char buf '/'; advance ()
        | Some 'n' -> Buffer.add_char buf '\n'; advance ()
        | Some 'r' -> Buffer.add_char buf '\r'; advance ()
        | Some 't' -> Buffer.add_char buf '\t'; advance ()
        | Some 'b' -> Buffer.add_char buf '\b'; advance ()
        | Some 'f' -> Buffer.add_char buf '\012'; advance ()
        | Some 'u' ->
          advance ();
          let cp = hex4 () in
          let cp =
            (* Surrogate pair. *)
            if cp >= 0xd800 && cp <= 0xdbff && !pos + 1 < n
               && s.[!pos] = '\\'
               && !pos + 1 < n
               && s.[!pos + 1] = 'u'
            then begin
              pos := !pos + 2;
              let lo = hex4 () in
              0x10000 + (((cp - 0xd800) lsl 10) lor (lo - 0xdc00))
            end
            else cp
          in
          add_utf8 buf cp
        | _ -> fail "bad escape");
        go ()
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    let num_char c =
      match c with
      | '0' .. '9' | '-' | '+' -> true
      | '.' | 'e' | 'E' ->
        is_float := true;
        true
      | _ -> false
    in
    while !pos < n && num_char s.[!pos] do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        List (items [])
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let member () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let rec members acc =
          let kv = member () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members (kv :: acc)
          | Some '}' ->
            advance ();
            List.rev (kv :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (members [])
      end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg
