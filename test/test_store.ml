(* Experiment-store tests (DESIGN.md section 14): canonical keys and the
   FNV-1a hashes against their old string-building versions, envelope
   round-trips and the bytes [put] writes, corruption-as-miss (including
   a seeded random corruption property), the codec's image table, the
   LRU bound, epoch invalidation, two-process concurrency,
   stable-instrument capture/replay, and the end-to-end cold-vs-warm
   equivalence of a store-backed solve and sweep. *)

module Store = Dvs_store.Store
module Key = Dvs_store.Key
module Capture = Dvs_store.Capture
module Codec = Dvs_store.Codec
module Exec = Dvs_store.Exec
module Json = Dvs_obs.Json
module Metrics = Dvs_obs.Metrics
module Workload = Dvs_workloads.Workload
module Profile = Dvs_profile.Profile
module Pipeline = Dvs_core.Pipeline
module Cpu = Dvs_machine.Cpu

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_root =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "dvs_store_test_%d_%d" (Unix.getpid ()) !n)
    in
    rm_rf dir;
    dir

let sample_key ?(salt = 0) () =
  Key.make ~kind:"sim"
    [ ("program", Key.S "adpcm:default");
      ("salt", Key.I salt);
      ("freq", Key.F 2.5e8);
      ("modes", Key.L [ Key.I 1; Key.I 2; Key.I 3 ]) ]

let sample_payload = Json.Obj [ ("x", Json.Int 42); ("y", Json.String "z") ]

let entry_path st key = Filename.concat (Store.root st) (Key.filename key)

(* --- keys ------------------------------------------------------------- *)

let test_key () =
  let a =
    Key.make ~kind:"solve" [ ("b", Key.I 2); ("a", Key.F 1.5) ]
  in
  let b =
    Key.make ~kind:"solve" [ ("a", Key.F 1.5); ("b", Key.I 2) ]
  in
  Alcotest.(check string)
    "component order is canonicalized" (Key.canonical a) (Key.canonical b);
  Alcotest.(check string)
    "same filename too" (Key.filename a) (Key.filename b);
  let c =
    Key.make ~kind:"solve"
      [ ("a", Key.F (1.5 +. epsilon_float)); ("b", Key.I 2) ]
  in
  Alcotest.(check bool)
    "one ulp changes the key" false
    (Key.canonical a = Key.canonical c);
  let d = Key.make ~kind:"sweep" [ ("a", Key.F 1.5); ("b", Key.I 2) ] in
  Alcotest.(check bool)
    "kind is part of the identity" false (Key.filename a = Key.filename d);
  (match Key.make ~kind:"So lve" [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad kind accepted");
  (match Key.make ~kind:"solve" [ ("a|b", Key.I 1) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "component name with '|' accepted");
  Alcotest.(check string)
    "fnv-1a of empty string" "cbf29ce484222325" (Key.hash_hex "")

(* --- FNV-1a ------------------------------------------------------------ *)

(* The closure-based loop [Key.hash_hex] replaced (it boxed an Int64 per
   byte), kept as the oracle for the unboxed one. *)
let hash_hex_oracle s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h :=
        Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

let qcheck_hash_hex =
  QCheck.Test.make ~name:"hash_hex equals the String.iter FNV-1a" ~count:200
    QCheck.(string_of_size Gen.(0 -- 2048))
    (fun s -> Key.hash_hex s = hash_hex_oracle s)

let minor_words_of f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (Gc.minor_words () -. w0, r)

let test_hash_hex_alloc () =
  let s = String.init (1 lsl 20) (fun i -> Char.chr ((i * 7919) land 0xff)) in
  ignore (Key.hash_hex s);
  let words, h = minor_words_of (fun () -> Key.hash_hex s) in
  Alcotest.(check string) "same value as the oracle" (hash_hex_oracle s) h;
  if words >= 1000.0 then
    Alcotest.failf
      "hash_hex allocated %.0f words on a 1 MB string (budget 1000)" words

(* The string-building [memory_fingerprint] the streaming one replaced:
   one decimal rendering and a comma per word, hashed as one string. *)
let memory_fingerprint_oracle mem =
  let b = Buffer.create (Array.length mem * 4) in
  Array.iter
    (fun w ->
      Buffer.add_string b (string_of_int w);
      Buffer.add_char b ',')
    mem;
  hash_hex_oracle (Buffer.contents b)

let paper_programs = [ "adpcm"; "epic"; "gsm"; "mpeg"; "ghostscript"; "mpg123" ]

let test_memory_fingerprint () =
  List.iter
    (fun name ->
      let w = Workload.find name in
      let _, _, mem = Workload.load w ~input:(Workload.default_input w) in
      Alcotest.(check string)
        (name ^ " image") (memory_fingerprint_oracle mem)
        (Codec.memory_fingerprint mem))
    paper_programs;
  let rng = Random.State.make [| 15 |] in
  let word () =
    (* All 63 bits random, so about half the words are negative. *)
    Random.State.bits rng
    lxor (Random.State.bits rng lsl 30)
    lxor (Random.State.bits rng lsl 60)
  in
  let edges =
    [| 0; 1; -1; 9; -9; 10; -10; 99; -100; max_int; min_int; max_int - 1;
       min_int + 1 |]
  in
  let seeded =
    Array.concat [ edges; Array.init 2000 (fun _ -> word ()); edges ]
  in
  Alcotest.(check string)
    "seeded words with 0, negatives, max_int, min_int"
    (memory_fingerprint_oracle seeded)
    (Codec.memory_fingerprint seeded);
  Alcotest.(check string)
    "empty image" (memory_fingerprint_oracle [||])
    (Codec.memory_fingerprint [||])

(* --- envelope round-trip ---------------------------------------------- *)

let test_roundtrip () =
  let root = fresh_root () in
  let st = Store.open_ ~root () in
  let key = sample_key () in
  Alcotest.(check bool) "miss before put" true (Store.get_json st key = None);
  ignore (Store.put st key sample_payload);
  (match Store.get_json st key with
  | Some p ->
    Alcotest.(check bool) "payload round-trips" true
      (Json.equal p sample_payload)
  | None -> Alcotest.fail "hit expected after put");
  (* The on-disk envelope is a valid dvs-store/v1 document. *)
  let ic = open_in (entry_path st key) in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (match Json.of_string text with
  | Ok j -> (
    match Dvs_obs.Schema.validate_store j with
    | Ok () -> ()
    | Error e -> Alcotest.failf "envelope fails validate_store: %s" e)
  | Error e -> Alcotest.failf "envelope is not JSON: %s" e);
  (match Dvs_obs.Schema.validate_store (Json.Obj [ ("schema", Json.Int 3) ]) with
  | Ok () -> Alcotest.fail "garbage passed validate_store"
  | Error _ -> ());
  let c = Store.counts st in
  Alcotest.(check int) "one put" 1 c.Store.puts;
  Alcotest.(check int) "one hit" 1 c.Store.hits;
  Alcotest.(check int) "one miss" 1 c.Store.misses;
  let d = Store.disk_stats st in
  Alcotest.(check int) "one entry on disk" 1 d.Store.entries;
  Alcotest.(check (list (pair string int)))
    "kind breakdown" [ ("sim", 1) ] d.Store.by_kind;
  rm_rf root

let read_text path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  text

let write_text path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

(* [put] renders the payload once and writes the envelope around those
   bytes: the file must be exactly the rendering of the whole envelope,
   so [Schema.validate_store] and readers that parse the whole file
   still read it. *)
let test_put_bytes () =
  let root = fresh_root () in
  let st = Store.open_ ~root () in
  let key = sample_key () in
  ignore (Store.put st key sample_payload);
  let path = entry_path st key in
  let envelope =
    Json.Obj
      [ ("schema", Json.String "dvs-store/v1");
        ("key", Json.String (Key.canonical key));
        ("kind", Json.String (Key.kind key));
        ("epoch", Json.Int Store.format_epoch);
        ( "checksum",
          Json.String (Key.hash_hex (Json.to_string sample_payload)) );
        ("payload", sample_payload) ]
  in
  let text = read_text path in
  Alcotest.(check string)
    "file is the rendering of the whole envelope" (Json.to_string envelope)
    text;
  (match Store.read_entry path with
  | Ok e ->
    Alcotest.(check bool) "read_entry returns the payload" true
      (Json.equal e.Store.en_payload sample_payload);
    Alcotest.(check string) "and the key" (Key.canonical key) e.Store.en_key
  | Error e -> Alcotest.failf "fresh entry rejected: %s" e);
  (* Payload bytes that no longer match the checksum, though they parse
     to the very same tree: the check is on the bytes as written. *)
  let sep = "\"payload\":{" in
  let i =
    Str.search_forward (Str.regexp_string sep) text 0 + String.length sep
  in
  write_text path
    (String.sub text 0 i ^ " " ^ String.sub text i (String.length text - i));
  (match Store.read_entry path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "re-spaced payload passed the byte checksum");
  Alcotest.(check bool)
    "re-spaced payload is a miss" true (Store.get_json st key = None);
  Alcotest.(check int) "counted corrupt" 1 (Store.counts st).Store.corrupt;
  Alcotest.(check bool) "and deleted" false (Sys.file_exists path);
  rm_rf root

(* --- corruption is a miss --------------------------------------------- *)

let test_corrupt_entry () =
  let root = fresh_root () in
  let st = Store.open_ ~root () in
  let key = sample_key () in
  ignore (Store.put st key sample_payload);
  let path = entry_path st key in
  (* Truncate: unparseable JSON. *)
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd 25;
  Unix.close fd;
  Alcotest.(check bool)
    "truncated entry is a miss" true
    (Store.get_json st key = None);
  Alcotest.(check bool) "and is deleted" false (Sys.file_exists path);
  Alcotest.(check int)
    "counted corrupt" 1 (Store.counts st).Store.corrupt;
  (* Flip one payload byte: parseable, checksum mismatch. *)
  ignore (Store.put st key sample_payload);
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let i = Str.search_forward (Str.regexp_string "42") text 0 in
  let bytes = Bytes.of_string text in
  Bytes.set bytes i '9';
  let oc = open_out path in
  output_bytes oc bytes;
  close_out oc;
  Alcotest.(check bool)
    "checksum mismatch is a miss" true
    (Store.get_json st key = None);
  (* Recompute path: a put after the miss works again. *)
  ignore (Store.put st key sample_payload);
  Alcotest.(check bool)
    "store recovers after corruption" true
    (Store.get_json st key <> None);
  rm_rf root

(* One damaged byte in a header: a real sweep key's "continuous" becomes
   "conti\\uous", an escape that is not four hex digits.  The header is
   parsed before the payload's checksum is checked, so the parse itself
   must turn the damage into a miss. *)
let test_damaged_header () =
  let root = fresh_root () in
  let st = Store.open_ ~root () in
  let key =
    Key.make ~kind:"sweep" (Codec.pipeline_components Pipeline.Config.default)
  in
  ignore (Store.put st key sample_payload);
  let path = entry_path st key in
  let text = read_text path in
  let i = Str.search_forward (Str.regexp_string "continuous") text 0 + 5 in
  write_text path (String.mapi (fun k c -> if k = i then '\\' else c) text);
  (match Store.read_entry path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "damaged header read as an entry");
  Alcotest.(check int)
    "verify reports it" 1
    (List.length (Store.verify st).Store.vr_corrupt);
  Alcotest.(check bool) "a miss" true (Store.get_json st key = None);
  Alcotest.(check int) "counted corrupt" 1 (Store.counts st).Store.corrupt;
  Alcotest.(check bool) "and deleted" false (Sys.file_exists path);
  rm_rf root

(* Seeded corruption property: whatever byte is damaged (or wherever the
   file is cut), a lookup returns either a miss or the original payload
   — never garbage, never an exception. *)
let qcheck_corruption =
  QCheck.Test.make ~name:"random corruption yields miss or original"
    ~count:150
    QCheck.(triple small_nat char bool)
    (fun (pos, c, truncate) ->
      let root = fresh_root () in
      let st = Store.open_ ~root () in
      let key = sample_key () in
      ignore (Store.put st key sample_payload);
      let path = entry_path st key in
      let ic = open_in path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let len = String.length text in
      let pos = pos mod len in
      (if truncate then begin
         let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
         Unix.ftruncate fd pos;
         Unix.close fd
       end
       else begin
         let bytes = Bytes.of_string text in
         Bytes.set bytes pos c;
         let oc = open_out path in
         output_bytes oc bytes;
         close_out oc
       end);
      let ok =
        match Store.get_json st key with
        | None -> true
        | Some p -> Json.equal p sample_payload
      in
      rm_rf root;
      ok)

(* --- codec: one image per entry --------------------------------------- *)

let xscale3 () = Workload.eval_config ~mode_table:Dvs_power.Mode.xscale3 ()

(* adpcm's profile and Table-4 sweep grid (five points plus the two
   saturation probes), shared by the codec and sweep tests. *)
let adpcm =
  lazy
    (let w = Workload.find "adpcm" in
     let cfg, _, mem = Workload.load w ~input:(Workload.default_input w) in
     let machine = xscale3 () in
     let p = Profile.collect machine cfg ~memory:mem in
     (machine, cfg, mem, p, Dvs_workloads.Deadlines.sweep_of_profile p))

let reparse j =
  match Json.of_string (Json.to_string j) with
  | Ok j -> j
  | Error e -> Alcotest.failf "codec output does not re-parse: %s" e

let image_count j =
  match Json.member "images" j with
  | Some (Json.List l) -> List.length l
  | _ -> Alcotest.fail "no images member"

(* Equal to the originals, and every decoded run owns its memory: no
   alias of the source, nor of another decoded run. *)
let check_runs what (orig : Cpu.run_stats array) (back : Cpu.run_stats array)
    =
  Alcotest.(check int) (what ^ ": run count") (Array.length orig)
    (Array.length back);
  Array.iteri
    (fun i (r : Cpu.run_stats) ->
      if r <> back.(i) then Alcotest.failf "%s: run %d differs" what i;
      if r.Cpu.memory == back.(i).Cpu.memory then
        Alcotest.failf "%s: run %d aliases the source image" what i;
      Array.iteri
        (fun k (b : Cpu.run_stats) ->
          if k < i && b.Cpu.memory == back.(i).Cpu.memory then
            Alcotest.failf "%s: runs %d and %d share one image" what k i)
        back)
    orig

let test_codec_profile_images () =
  let machine, cfg, _, p, _ = Lazy.force adpcm in
  Alcotest.(check int) "three mode runs" 3 (Array.length p.Profile.runs);
  let j = Codec.profile_to_json p in
  Alcotest.(check int) "one image for three runs" 1 (image_count j);
  match Codec.profile_of_json ~cfg ~config:machine (reparse j) with
  | Ok q -> check_runs "profile" p.Profile.runs q.Profile.runs
  | Error e -> Alcotest.failf "profile does not round-trip: %s" e

let verified_stats (results : Pipeline.result array) =
  Array.to_list results
  |> List.filter_map (fun (r : Pipeline.result) ->
         Option.map
           (fun (v : Dvs_core.Verify.report) -> v.Dvs_core.Verify.stats)
           r.Pipeline.verification)
  |> Array.of_list

let test_codec_sweep_images () =
  let machine, cfg, mem, p, deadlines = Lazy.force adpcm in
  let sw =
    Pipeline.optimize_sweep ~verify_config:machine ~profile:p machine cfg
      ~memory:mem ~deadlines
  in
  let stats = verified_stats sw.Pipeline.results in
  Alcotest.(check int) "seven verified points" 7 (Array.length stats);
  let e =
    { Codec.se_points = Array.map Codec.essence_of_result sw.Pipeline.results;
      se_stats = sw.Pipeline.sweep }
  in
  let j = Codec.sweep_to_json e in
  Alcotest.(check int) "one image for seven reports" 1 (image_count j);
  match Codec.sweep_of_json (reparse j) with
  | Ok d ->
    let back =
      Array.to_list d.Codec.se_points
      |> List.filter_map (fun (e : Codec.solve_essence) ->
             Option.map
               (fun (v : Dvs_core.Verify.report) -> v.Dvs_core.Verify.stats)
               e.Codec.e_verification)
      |> Array.of_list
    in
    check_runs "sweep" stats back
  | Error e -> Alcotest.failf "sweep does not round-trip: %s" e

let map_member k f = function
  | Json.Obj kvs ->
    Json.Obj
      (List.map (fun (k', v) -> if k' = k then (k', f v) else (k', v)) kvs)
  | j -> j

let drop_member k = function
  | Json.Obj kvs -> Json.Obj (List.filter (fun (k', _) -> k' <> k) kvs)
  | j -> j

(* Point the first run's memory at image [i]. *)
let with_first_image i =
  map_member "runs" (function
    | Json.List (r :: rest) ->
      Json.List (map_member "memory" (fun _ -> Json.Int i) r :: rest)
    | j -> j)

(* Rewrite the first image string. *)
let with_first_image_string f =
  map_member "images" (function
    | Json.List (Json.String s :: rest) -> Json.List (Json.String (f s) :: rest)
    | j -> j)

let test_codec_bad_images () =
  let machine, cfg, _, p, _ = Lazy.force adpcm in
  let j = Codec.profile_to_json p in
  (* [put] checksums the damaged payload, so the damage reaches the
     decoder rather than the read check. *)
  let damaged =
    [ ("negative image index", with_first_image (-1) j);
      ("image index past the table", with_first_image (image_count j) j);
      ("no images member", drop_member "images" j);
      ( "a letter inside an image",
        with_first_image_string
          (fun s -> String.mapi (fun i c -> if i = 3 then 'x' else c) s)
          j );
      ( "an image cut after a comma",
        with_first_image_string (fun s -> s ^ ",") j );
      ( "an image as a list of ints",
        map_member "images"
          (fun _ -> Json.List [ Json.List [ Json.Int 1; Json.Int 2 ] ])
          j ) ]
  in
  let decode = Codec.profile_of_json ~cfg ~config:machine in
  let root = fresh_root () in
  let st = Store.open_ ~root () in
  List.iteri
    (fun i (what, bad) ->
      (match decode bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s decoded" what);
      let key = sample_key ~salt:i () in
      ignore (Store.put st key bad);
      Alcotest.(check bool)
        (what ^ ": a store miss") true
        (Store.get st key ~decode:(fun ~checksum:_ -> decode) = None);
      Alcotest.(check int)
        (what ^ ": counted corrupt") (i + 1) (Store.counts st).Store.corrupt;
      Alcotest.(check bool)
        (what ^ ": deleted") false
        (Sys.file_exists (entry_path st key)))
    damaged;
  rm_rf root

(* --- codec: packed image strings ---------------------------------------- *)

let edge_words =
  [| 0; 1; -1; 9; -9; 10; -10; max_int; min_int; max_int - 1; min_int + 1 |]

let image_gen =
  QCheck.Gen.(
    let word =
      frequency
        [ (4, int); (3, int_range (-1000) 1000); (1, oneofa edge_words) ]
    in
    frequency
      [ (1, return [||]);
        (1, return edge_words);
        (8, array_size (0 -- 300) word) ])

(* [image_to_string] is [string_of_int] joined by commas, and
   [image_of_string] reads every such string back to the same words. *)
let qcheck_image_roundtrip =
  QCheck.Test.make ~name:"image strings round-trip int arrays" ~count:300
    (QCheck.make
       ~print:(fun a ->
         String.concat ";" (Array.to_list (Array.map string_of_int a)))
       image_gen)
    (fun a ->
      let s = Codec.image_to_string a in
      s = String.concat "," (Array.to_list (Array.map string_of_int a))
      && Codec.image_of_string s = Ok a)

let test_image_strings () =
  List.iter
    (fun (s, want) ->
      match Codec.image_of_string s with
      | Ok got when got = want -> ()
      | Ok _ -> Alcotest.failf "%S decoded to other words" s
      | Error e -> Alcotest.failf "%S rejected: %s" s e)
    [ ("", [||]);
      ("0", [| 0 |]);
      ("-7,0,12", [| -7; 0; 12 |]);
      ("4611686018427387903", [| max_int |]);
      ("-4611686018427387904", [| min_int |]) ];
  List.iter
    (fun s ->
      match Codec.image_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S decoded" s
      | exception e ->
        Alcotest.failf "%S raised %s" s (Printexc.to_string e))
    [ "1,,2"; ",1"; "1,"; "-"; "+1"; "1a"; "4611686018427387904";
      "-4611686018427387905"; ","; "-0"; "01"; "00"; "--1"; " 1"; "1 ";
      "99999999999999999999999"; "1,-" ]

(* Words allocated by [f], major-heap arrays included: the minor
   collections settle [Gc.quick_stat]'s lagging counters. *)
let allocated_words f =
  let total () =
    Gc.minor ();
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let w0 = total () in
  let r = f () in
  let w1 = total () in
  (w1 -. w0, r)

(* Reading mpeg's profile back from its payload bytes costs its image
   string, one decoded image, a copy for each further run and a small
   remainder for everything else: no boxed value or list cell per word. *)
let test_codec_decode_budget () =
  let w = Workload.find "mpeg" in
  let cfg, _, memory = Workload.load w ~input:(Workload.default_input w) in
  let machine = Workload.eval_config () in
  let p = Profile.collect machine cfg ~memory in
  let words = Array.length p.Profile.runs.(0).Cpu.memory in
  Alcotest.(check int) "mpeg's image" 40964 words;
  let text = Json.to_string (Codec.profile_to_json p) in
  let decode () =
    match Json.of_string text with
    | Error e -> Alcotest.failf "payload does not parse: %s" e
    | Ok j -> Codec.profile_of_json ~cfg ~config:machine j
  in
  ignore (decode ());
  let alloc, q = allocated_words decode in
  (match q with
  | Ok q -> check_runs "mpeg" p.Profile.runs q.Profile.runs
  | Error e -> Alcotest.failf "profile does not round-trip: %s" e);
  let runs = Array.length p.Profile.runs in
  let string_words =
    String.length (Codec.image_to_string p.Profile.runs.(0).Cpu.memory) / 8
    + 2
  in
  (* The other members parse and decode in about 10,700 words. *)
  let remainder = 12_288 in
  let budget = string_words + (runs * (words + 1)) + remainder in
  if alloc > float_of_int budget then
    Alcotest.failf
      "decoding mpeg's profile allocated %.0f words, over its budget of %d \
       (string %d + %d images of %d + %d)"
      alloc budget string_words runs (words + 1) remainder

(* --- profile fingerprints ---------------------------------------------- *)

let rendered_fingerprint p =
  Key.hash_hex (Json.to_string (Codec.profile_to_json p))

(* A profile's fingerprint is the hash of its rendering wherever the
   value comes from: the [sim] entry's checksum as [put] computed it (a
   miss) or as the read verified it (a hit), both remembered before any
   key needs them, or one rendering on first use (a plain collect). *)
let test_profile_fingerprints () =
  let machine = Workload.eval_config () in
  let root = fresh_root () in
  let st = Store.open_ ~root () in
  let pairs =
    List.concat_map
      (fun (w : Workload.t) -> List.map (fun i -> (w, i)) w.Workload.inputs)
      Workload.all
  in
  Alcotest.(check int) "15 (workload, input) pairs" 15 (List.length pairs);
  List.iter
    (fun ((w : Workload.t), input) ->
      let what = w.Workload.name ^ "/" ^ input in
      let cfg, _, memory = Workload.load w ~input in
      let check case ~remembered p =
        let expected = rendered_fingerprint p in
        Alcotest.(check (option string))
          (what ^ ", " ^ case ^ ": known before use")
          (if remembered then Some expected else None)
          (Profile.fingerprint p);
        Alcotest.(check string)
          (what ^ ", " ^ case) expected
          (Codec.profile_fingerprint p);
        Alcotest.(check (option string))
          (what ^ ", " ^ case ^ ": known after use")
          (Some expected) (Profile.fingerprint p)
      in
      let exec () = Exec.profile ~store:st ~source:what machine cfg ~memory in
      check "sim miss" ~remembered:true (exec ());
      check "sim hit" ~remembered:true (exec ());
      check "plain collect" ~remembered:false
        (Profile.collect machine cfg ~memory))
    pairs;
  let c = Store.counts st in
  Alcotest.(check (pair int int)) "15 misses, 15 hits" (15, 15)
    (c.Store.misses, c.Store.hits);
  rm_rf root

(* A copy with new content never reads the original's value. *)
let test_fingerprint_copies () =
  let _, _, _, p, _ = Lazy.force adpcm in
  let fp = Codec.profile_fingerprint p in
  List.iter
    (fun (what, q) ->
      Alcotest.(check (option string))
        (what ^ ": nothing known") None (Profile.fingerprint q);
      let fq = Codec.profile_fingerprint q in
      Alcotest.(check string) (what ^ ": its own value")
        (rendered_fingerprint q) fq;
      if fq = fp then Alcotest.failf "%s: the original's value" what)
    [ ( "new exec_count",
        { p with Profile.exec_count = Array.map succ p.Profile.exec_count } );
      ("new entry_count", { p with Profile.entry_count = p.Profile.entry_count + 1 })
    ];
  Alcotest.(check string)
    "the original keeps its own" (rendered_fingerprint p)
    (Codec.profile_fingerprint p)

(* --- LRU bound -------------------------------------------------------- *)

let test_lru_bound () =
  let root = fresh_root () in
  let st = Store.open_ ~max_entries:4 ~root () in
  let now = Unix.gettimeofday () in
  (* Distinct mtimes make the eviction order deterministic (the real
     clock ticks too coarsely for back-to-back writes). *)
  for i = 0 to 4 do
    let key = sample_key ~salt:i () in
    ignore (Store.put st key sample_payload);
    let t = now -. 100.0 +. (10.0 *. float_of_int i) in
    Unix.utimes (entry_path st key) t t
  done;
  (* Putting a 6th entry must evict the oldest two (salts 0 and 1),
     keeping the most recently used. *)
  ignore (Store.put st (sample_key ~salt:5 ()) sample_payload);
  Alcotest.(check int)
    "bounded to max_entries" 4 (Store.disk_stats st).Store.entries;
  Alcotest.(check bool)
    "oldest entry evicted" true
    (Store.get_json st (sample_key ~salt:0 ()) = None);
  Alcotest.(check bool)
    "newest entry survives" true
    (Store.get_json st (sample_key ~salt:5 ()) <> None);
  Alcotest.(check bool)
    "evictions counted" true ((Store.counts st).Store.evictions >= 2);
  rm_rf root

(* --- epoch invalidation ----------------------------------------------- *)

let test_epoch_bump () =
  let root = fresh_root () in
  let st = Store.open_ ~root () in
  let key = sample_key () in
  ignore (Store.put st key sample_payload);
  let st2 = Store.open_ ~epoch:(Store.format_epoch + 1) ~root () in
  Alcotest.(check bool)
    "old-epoch entry is stale" true
    (Store.get_json st2 key = None);
  Alcotest.(check int) "counted stale" 1 (Store.counts st2).Store.stale;
  Alcotest.(check bool)
    "stale entry removed on sight" false
    (Sys.file_exists (entry_path st key));
  rm_rf root

(* --- two-process concurrency ------------------------------------------ *)

let concurrency_payload i =
  Json.Obj [ ("i", Json.Int i); ("pad", Json.String (String.make 4096 'p')) ]

let concurrency_rounds = 100

(* The put-hammering side of the two-process test.  [Unix.fork] is
   unavailable once any suite has spawned a domain, so test_main
   re-executes the whole test binary with [child_env_var] set and
   branches here before Alcotest takes over. *)
let child_env_var = "DVS_STORE_TEST_CHILD"

let child_main root =
  let st = Store.open_ ~root () in
  for i = 0 to concurrency_rounds - 1 do
    ignore
      (Store.put st
         (sample_key ~salt:(i mod 8) ())
         (concurrency_payload (i mod 8)))
  done;
  exit 0

let test_concurrent_processes () =
  let root = fresh_root () in
  let st = Store.open_ ~root () in
  let pid =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name |]
      (Array.append (Unix.environment ())
         [| child_env_var ^ "=" ^ root |])
      Unix.stdin Unix.stdout Unix.stderr
  in
  (* Concurrent puts and gets on the keys the child is hammering.  Every
     lookup must be a miss or a complete payload — never a torn read. *)
  let torn = ref 0 in
  for i = 0 to concurrency_rounds - 1 do
    let salt = i mod 8 in
    ignore (Store.put st (sample_key ~salt ()) (concurrency_payload salt));
    match Store.get_json st (sample_key ~salt ()) with
    | None -> ()
    | Some p -> if not (Json.equal p (concurrency_payload salt)) then incr torn
  done;
  let _, status = Unix.waitpid [] pid in
  Alcotest.(check bool) "child exited cleanly" true
    (status = Unix.WEXITED 0);
  Alcotest.(check int) "no torn reads" 0 !torn;
  let r = Store.verify st in
  Alcotest.(check int) "no corrupt entries on disk" 0
    (List.length r.Store.vr_corrupt);
  Alcotest.(check int) "all entries intact" r.Store.vr_checked r.Store.vr_ok;
  rm_rf root

(* --- gc and verify ----------------------------------------------------- *)

let test_gc () =
  let root = fresh_root () in
  let st = Store.open_ ~root () in
  ignore (Store.put st (sample_key ~salt:0 ()) sample_payload);
  ignore (Store.put st (sample_key ~salt:1 ()) sample_payload);
  (* Plant a foreign file: gc must drop it, verify must report it. *)
  let oc = open_out (Filename.concat root "sim-0000000000000000.json") in
  output_string oc "not json";
  close_out oc;
  let v = Store.verify st in
  Alcotest.(check int) "verify flags the foreign file" 1
    (List.length v.Store.vr_corrupt);
  let r = Store.gc st in
  Alcotest.(check int) "gc scanned everything" 3 r.Store.gc_scanned;
  Alcotest.(check int) "gc kept the good entries" 2 r.Store.gc_kept;
  Alcotest.(check int) "gc dropped the corrupt file" 1 r.Store.gc_corrupt;
  Alcotest.(check int)
    "disk agrees" 2 (Store.disk_stats st).Store.entries;
  rm_rf root

(* --- capture / replay -------------------------------------------------- *)

let test_capture_replay () =
  let obs1 = Dvs_obs.metrics_only () in
  let m1 = Dvs_obs.metrics obs1 in
  let before = Capture.state obs1 in
  Metrics.Counter.add (Metrics.counter m1 "sim.dyn_instrs") ~slot:0 123;
  Metrics.Counter.add
    (Metrics.counter m1 ~stability:Metrics.Volatile "solver.nodes")
    ~slot:0 7;
  Metrics.Gauge.set (Metrics.gauge m1 "sim.time_seconds") 0.125;
  let cap = Capture.diff ~before ~after:(Capture.state obs1) in
  Alcotest.(check bool)
    "volatile counters excluded" true
    (not (List.mem_assoc "solver.nodes" cap.Capture.counters));
  (* JSON round-trip, then replay into a fresh registry. *)
  let cap =
    match Capture.of_json (Capture.to_json cap) with
    | Ok c -> c
    | Error e -> Alcotest.failf "capture does not round-trip: %s" e
  in
  let obs2 = Dvs_obs.metrics_only () in
  Capture.replay obs2 cap;
  let m2 = Dvs_obs.metrics obs2 in
  Alcotest.(check int)
    "counter delta replayed" 123
    (Metrics.Counter.value (Metrics.counter m2 "sim.dyn_instrs"));
  Alcotest.(check int)
    "volatile counter not replayed" 0
    (Metrics.Counter.value
       (Metrics.counter m2 ~stability:Metrics.Volatile "solver.nodes"));
  Alcotest.(check bool)
    "gauge value bit-identical" true
    (Int64.equal
       (Int64.bits_of_float
          (Metrics.Gauge.value (Metrics.gauge m2 "sim.time_seconds")))
       (Int64.bits_of_float 0.125))

(* --- cold vs warm solve ------------------------------------------------ *)

let test_exec_cold_warm () =
  let w = Workload.find "adpcm" in
  let input = Workload.default_input w in
  let cfg, _, mem = Workload.load w ~input in
  let machine =
    Workload.eval_config ~mode_table:Dvs_power.Mode.xscale3 ()
  in
  let p = Profile.collect machine cfg ~memory:mem in
  let n = Dvs_power.Mode.size machine.Dvs_machine.Config.mode_table in
  let t_fast = Profile.pinned_time p ~mode:(n - 1) in
  let t_slow = Profile.pinned_time p ~mode:0 in
  let deadline = t_fast +. (0.5 *. (t_slow -. t_fast)) in
  let root = fresh_root () in
  let run obs =
    let store = Store.open_ ~obs ~root () in
    let solver = Dvs_milp.Solver.Config.make ~obs () in
    let config =
      Dvs_core.Pipeline.Config.make ~solver ()
      |> Dvs_core.Pipeline.Config.with_obs obs
    in
    Exec.optimize_multi ~store ~config ~verify_config:machine
      ~regulator:machine.Dvs_machine.Config.regulator ~memory:mem
      [ { Dvs_core.Formulation.profile = p; weight = 1.0; deadline } ]
  in
  let obs_cold = Dvs_obs.metrics_only () in
  let r_cold = run obs_cold in
  let obs_warm = Dvs_obs.metrics_only () in
  let r_warm = run obs_warm in
  (* Bit-equal results: the stored essence of both runs renders
     identically (outcome, solution, schedule, predicted energy,
     verification — every float compared by rendered bits). *)
  let essence r =
    Json.to_string (Codec.essence_to_json (Codec.essence_of_result r))
  in
  Alcotest.(check string)
    "warm result bit-equal to cold" (essence r_cold) (essence r_warm);
  let vol obs name =
    Metrics.Counter.value
      (Metrics.counter (Dvs_obs.metrics obs) ~stability:Metrics.Volatile
         name)
  in
  Alcotest.(check int) "cold run missed" 1 (vol obs_cold "store.solve_misses");
  Alcotest.(check int) "warm run hit" 1 (vol obs_warm "store.solve_hits");
  Alcotest.(check int)
    "warm run ran zero LP solves" 0 (vol obs_warm "solver.lp_solves");
  Alcotest.(check int)
    "warm run ran zero simulations" 0 (vol obs_warm "sim.summary_misses");
  (* The deterministic metric subsets agree exactly. *)
  Alcotest.(check string)
    "stable metric subsets bit-identical"
    (Json.to_string
       (Metrics.stable_subset (Metrics.snapshot (Dvs_obs.metrics obs_cold))))
    (Json.to_string
       (Metrics.stable_subset (Metrics.snapshot (Dvs_obs.metrics obs_warm))));
  rm_rf root

(* --- cold vs warm sweep ------------------------------------------------ *)

let test_exec_sweep_cold_warm () =
  let machine, cfg, mem, p, deadlines = Lazy.force adpcm in
  let root = fresh_root () in
  let run obs =
    let store = Store.open_ ~obs ~root () in
    let solver = Dvs_milp.Solver.Config.make ~obs () in
    let config =
      Pipeline.Config.make ~solver () |> Pipeline.Config.with_obs obs
    in
    Exec.optimize_sweep ~store ~config ~verify_config:machine ~profile:p
      machine cfg ~memory:mem ~deadlines
  in
  let obs_cold = Dvs_obs.metrics_only () in
  let r_cold = run obs_cold in
  let obs_warm = Dvs_obs.metrics_only () in
  let r_warm = run obs_warm in
  let essence (r : Pipeline.sweep_result) =
    Json.to_string
      (Codec.sweep_to_json
         { Codec.se_points =
             Array.map Codec.essence_of_result r.Pipeline.results;
           se_stats = r.Pipeline.sweep })
  in
  Alcotest.(check string)
    "warm sweep bit-equal to cold" (essence r_cold) (essence r_warm);
  let vol obs name =
    Metrics.Counter.value
      (Metrics.counter (Dvs_obs.metrics obs) ~stability:Metrics.Volatile
         name)
  in
  Alcotest.(check int) "cold run missed" 1 (vol obs_cold "store.sweep_misses");
  Alcotest.(check int) "warm run hit" 1 (vol obs_warm "store.sweep_hits");
  Alcotest.(check bool)
    "cold run solved LPs" true (vol obs_cold "solver.lp_solves" > 0);
  Alcotest.(check int)
    "warm run ran zero LP solves" 0 (vol obs_warm "solver.lp_solves");
  Alcotest.(check int)
    "warm run ran zero simulations" 0 (vol obs_warm "sim.summary_misses");
  Alcotest.(check string)
    "stable metric subsets bit-identical"
    (Json.to_string
       (Metrics.stable_subset (Metrics.snapshot (Dvs_obs.metrics obs_cold))))
    (Json.to_string
       (Metrics.stable_subset (Metrics.snapshot (Dvs_obs.metrics obs_warm))));
  rm_rf root

(* [Exec] forces the caller's session thunk only when the profile's own
   recording cannot serve: never after profiling in this process, once
   after a [sim] hit (a decoded profile holds no recording), and never
   on a [sweep] hit, where a fresh profile's recording is dropped. *)
let test_exec_session_thunk () =
  let w = Workload.find "adpcm" in
  let input = Workload.default_input w in
  let cfg, _, mem = Workload.load w ~input in
  let machine = xscale3 () in
  let root = fresh_root () in
  let store = Store.open_ ~root () in
  let forced = ref 0 in
  let session () =
    incr forced;
    Dvs_core.Verify.Session.create machine cfg ~memory:mem
  in
  let profile () =
    Exec.profile ~store ~source:("adpcm:" ^ input) machine cfg ~memory:mem
  in
  let sweep p deadlines =
    Exec.optimize_sweep ~store ~verify_config:machine ~profile:p ~session
      machine cfg ~memory:mem ~deadlines
  in
  let has p = Option.is_some (Profile.recording p) in
  let essence (r : Pipeline.sweep_result) =
    Json.to_string
      (Codec.sweep_to_json
         { Codec.se_points =
             Array.map Codec.essence_of_result r.Pipeline.results;
           se_stats = r.Pipeline.sweep })
  in
  let p1 = profile () in
  Alcotest.(check bool) "a fresh profile holds its recording" true (has p1);
  let grid = Dvs_workloads.Deadlines.sweep_of_profile p1 in
  let r1 = sweep p1 grid in
  Alcotest.(check int) "empty store: thunk not forced" 0 !forced;
  Alcotest.(check bool) "recording taken" false (has p1);
  let p2 = profile () in
  Alcotest.(check bool) "a decoded profile holds no recording" false (has p2);
  ignore (sweep p2 (Array.sub grid 0 3));
  Alcotest.(check int) "sim hit, sweep miss: thunk forced once" 1 !forced;
  let p3 = Profile.collect machine cfg ~memory:mem in
  let r3 = sweep p3 grid in
  Alcotest.(check int) "sweep hit: thunk not forced" 1 !forced;
  Alcotest.(check bool) "sweep hit drops the recording" false (has p3);
  Alcotest.(check string) "hit = miss" (essence r1) (essence r3);
  rm_rf root

let suite =
  [ Alcotest.test_case "canonical keys" `Quick test_key;
    QCheck_alcotest.to_alcotest qcheck_hash_hex;
    Alcotest.test_case "hash_hex allocation budget" `Quick test_hash_hex_alloc;
    Alcotest.test_case "memory fingerprint = string oracle" `Quick
      test_memory_fingerprint;
    Alcotest.test_case "envelope round-trip" `Quick test_roundtrip;
    Alcotest.test_case "put writes the envelope rendering" `Quick
      test_put_bytes;
    Alcotest.test_case "corrupted entry is a miss" `Quick test_corrupt_entry;
    Alcotest.test_case "damaged header is a miss" `Quick test_damaged_header;
    QCheck_alcotest.to_alcotest qcheck_corruption;
    Alcotest.test_case "codec: one image per profile" `Quick
      test_codec_profile_images;
    Alcotest.test_case "codec: one image per sweep" `Quick
      test_codec_sweep_images;
    Alcotest.test_case "codec: bad image table is a miss" `Quick
      test_codec_bad_images;
    QCheck_alcotest.to_alcotest qcheck_image_roundtrip;
    Alcotest.test_case "codec: malformed image strings are errors" `Quick
      test_image_strings;
    Alcotest.test_case "codec: decoding mpeg's profile within budget" `Quick
      test_codec_decode_budget;
    Alcotest.test_case "fingerprint from sim miss, hit, collect: 15 inputs"
      `Slow test_profile_fingerprints;
    Alcotest.test_case "fingerprint of a copy is its own" `Quick
      test_fingerprint_copies;
    Alcotest.test_case "LRU bound" `Quick test_lru_bound;
    Alcotest.test_case "epoch bump invalidates" `Quick test_epoch_bump;
    Alcotest.test_case "two-process concurrency" `Quick
      test_concurrent_processes;
    Alcotest.test_case "gc and verify" `Quick test_gc;
    Alcotest.test_case "capture/replay" `Quick test_capture_replay;
    Alcotest.test_case "cold vs warm solve" `Quick test_exec_cold_warm;
    Alcotest.test_case "cold vs warm sweep" `Quick test_exec_sweep_cold_warm;
    Alcotest.test_case "session thunk forced only when needed" `Quick
      test_exec_session_thunk ]
