type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---- printing -------------------------------------------------------- *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Round-trip precision, and always a '.' or exponent so the value
   re-parses as a float rather than an int ([%.17g] prints an integral
   float below 1e17 with neither). *)
let float_to_string f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e17 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (float_to_string f)
  | String s -> escape_to buf s
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_to buf k;
        Buffer.add_char buf ':';
        emit buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  emit buf v;
  Buffer.contents buf

let to_channel oc v = output_string oc (to_string v)

(* ---- parsing --------------------------------------------------------- *)

(* An index scanner over the input: no option per character, a string
   without escapes is one [String.sub], and an integer that fits is
   accumulated in place.  Every malformed input raises [Parse_error]
   inside and becomes [Error] at the end. *)

exception Parse_error of string

let add_utf8 buf cp =
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

let hex_digit = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | 'A' .. 'F' as c -> Char.code c - 55
  | _ -> -1

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at %d" msg !pos)) in
  let skip_ws () =
    while
      !pos < n
      &&
      match String.unsafe_get s !pos with
      | ' ' | '\t' | '\n' | '\r' -> true
      | _ -> false
    do
      incr pos
    done
  in
  let at c = !pos < n && String.unsafe_get s !pos = c in
  let expect c = if at c then incr pos else fail (Printf.sprintf "expected '%c'" c) in
  let literal lit v =
    let l = String.length lit in
    let rec same k = k = l || (s.[!pos + k] = lit.[k] && same (k + 1)) in
    if !pos + l <= n && same 0 then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" lit)
  in
  (* Exactly four hex digits. *)
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for k = 0 to 3 do
      let d = hex_digit s.[!pos + k] in
      if d < 0 then fail "bad \\u escape";
      v := (!v lsl 4) lor d
    done;
    pos := !pos + 4;
    !v
  in
  (* To the next '"' or backslash, or the end. *)
  let skip_plain () =
    while
      !pos < n
      && match String.unsafe_get s !pos with '"' | '\\' -> false | _ -> true
    do
      incr pos
    done
  in
  (* The rest of a string that holds an escape, [!pos] inside it. *)
  let rec escaped buf =
    if !pos >= n then fail "unterminated string";
    match String.unsafe_get s !pos with
    | '"' ->
      incr pos;
      Buffer.contents buf
    | '\\' ->
      incr pos;
      if !pos >= n then fail "bad escape";
      (match String.unsafe_get s !pos with
      | 'u' ->
        incr pos;
        let cp = hex4 () in
        let cp =
          (* A high surrogate followed by another escape: the pair. *)
          if cp >= 0xd800 && cp <= 0xdbff && !pos + 1 < n
             && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
          then begin
            pos := !pos + 2;
            let lo = hex4 () in
            0x10000 + (((cp - 0xd800) lsl 10) lor (lo - 0xdc00))
          end
          else cp
        in
        add_utf8 buf cp
      | c ->
        Buffer.add_char buf
          (match c with
          | '"' | '\\' | '/' -> c
          | 'n' -> '\n'
          | 'r' -> '\r'
          | 't' -> '\t'
          | 'b' -> '\b'
          | 'f' -> '\012'
          | _ -> fail "bad escape");
        incr pos);
      escaped buf
    | _ ->
      let start = !pos in
      skip_plain ();
      Buffer.add_substring buf s start (!pos - start);
      escaped buf
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    skip_plain ();
    if at '"' then begin
      incr pos;
      String.sub s start (!pos - 1 - start)
    end
    else begin
      let buf = Buffer.create (!pos - start + 16) in
      Buffer.add_substring buf s start (!pos - start);
      escaped buf
    end
  in
  (* A number is the longest run of [0-9+-.eE]: with '.', 'e' or 'E' it
     is a float; otherwise an integer, or a float past the int range. *)
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    while
      !pos < n
      &&
      match String.unsafe_get s !pos with
      | '0' .. '9' | '-' | '+' -> true
      | '.' | 'e' | 'E' ->
        is_float := true;
        true
      | _ -> false
    do
      incr pos
    done;
    let stop = !pos in
    let as_float () =
      match float_of_string_opt (String.sub s start (stop - start)) with
      | Some f -> Float f
      | None -> fail "bad number"
    in
    if !is_float then as_float ()
    else begin
      (* -?[0-9]+, accumulated negatively so that min_int fits. *)
      let neg = s.[start] = '-' in
      let i = ref (if neg then start + 1 else start) in
      let ok = ref (!i < stop) and acc = ref 0 in
      while !ok && !i < stop do
        let d = Char.code (String.unsafe_get s !i) - 48 in
        if d < 0 || d > 9 || !acc < min_int / 10 || !acc * 10 < min_int + d
        then ok := false
        else begin
          acc := (!acc * 10) - d;
          incr i
        end
      done;
      if !ok && (neg || !acc <> min_int) then Int (if neg then !acc else - !acc)
      else as_float ()
    end
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match String.unsafe_get s !pos with
    | 'n' -> literal "null" Null
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | '"' -> String (parse_string ())
    | '[' ->
      incr pos;
      skip_ws ();
      if at ']' then begin
        incr pos;
        List []
      end
      else List (items [])
    | '{' ->
      incr pos;
      skip_ws ();
      if at '}' then begin
        incr pos;
        Obj []
      end
      else Obj (members [])
    | '-' | '0' .. '9' -> parse_number ()
    | c -> fail (Printf.sprintf "unexpected '%c'" c)
  and items acc =
    let v = parse_value () in
    skip_ws ();
    if at ',' then begin
      incr pos;
      items (v :: acc)
    end
    else if at ']' then begin
      incr pos;
      List.rev (v :: acc)
    end
    else fail "expected ',' or ']'"
  and members acc =
    skip_ws ();
    let k = parse_string () in
    skip_ws ();
    expect ':';
    let kv = (k, parse_value ()) in
    skip_ws ();
    if at ',' then begin
      incr pos;
      members (kv :: acc)
    end
    else if at '}' then begin
      incr pos;
      List.rev (kv :: acc)
    end
    else fail "expected ',' or '}'"
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg
  | exception Stack_overflow -> Error "nesting too deep"

let equal = ( = )

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let to_int = function
  | Int n -> Some n
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_float = function
  | Float f -> Some f
  | Int n -> Some (float_of_int n)
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None

let to_list = function List xs -> Some xs | _ -> None

let keys = function Obj kvs -> Some (List.map fst kvs) | _ -> None
