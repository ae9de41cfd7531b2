type component =
  | I of int
  | F of float
  | S of string
  | L of component list

type t = { kind : string; canonical : string }

(* Same FNV-1a construction as Dvs_lp.Compiled.fingerprint, but over a
   byte string and kept at full 64 bits (the hash only names a file; the
   canonical string inside the entry is what authenticates it). *)
let fnv_offset = 0xcbf29ce484222325L

let fnv_prime = 0x100000001b3L

let hex64 h = Printf.sprintf "%016Lx" h

(* An indexed loop over a local ref, with no closure capturing it and no
   call taking or returning the state: ocamlopt keeps [h] unboxed, so
   hashing allocates only the hex digits. *)
let hash_hex s =
  let h = ref fnv_offset in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        fnv_prime
  done;
  hex64 !h

let kind_ok k =
  k <> ""
  && String.for_all
       (function 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false)
       k

let name_ok n = not (String.exists (function '|' | '=' -> true | _ -> false) n)

let rec render b = function
  | I n ->
    Buffer.add_char b 'i';
    Buffer.add_string b (string_of_int n)
  | F f ->
    (* Bit pattern, not decimal: the key must distinguish every float the
       computation would distinguish. *)
    Buffer.add_char b 'f';
    Buffer.add_string b (Printf.sprintf "%Lx" (Int64.bits_of_float f))
  | S s ->
    Buffer.add_char b '\'';
    Buffer.add_string b (String.escaped s);
    Buffer.add_char b '\''
  | L cs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_char b ',';
        render b c)
      cs;
    Buffer.add_char b ']'

let make ~kind components =
  if not (kind_ok kind) then
    invalid_arg "Dvs_store.Key.make: kind must match [a-z0-9_]+";
  List.iter
    (fun (name, _) ->
      if not (name_ok name) then
        invalid_arg "Dvs_store.Key.make: component names may not contain | or =")
    components;
  let components =
    List.stable_sort (fun (a, _) (b, _) -> String.compare a b) components
  in
  let b = Buffer.create 256 in
  Buffer.add_string b kind;
  List.iter
    (fun (name, c) ->
      Buffer.add_char b '|';
      Buffer.add_string b name;
      Buffer.add_char b '=';
      render b c)
    components;
  { kind; canonical = Buffer.contents b }

let kind t = t.kind

let canonical t = t.canonical

let filename t = t.kind ^ "-" ^ hash_hex t.canonical ^ ".json"
