module Json = Dvs_obs.Json
module Metrics = Dvs_obs.Metrics

let format_epoch = 9

let default_root = "_store"

let env_var = "DVS_STORE"

let schema_tag = "dvs-store/v1"

type counts = {
  hits : int;
  misses : int;
  stale : int;
  corrupt : int;
  puts : int;
  evictions : int;
}

type t = {
  root : string;
  epoch : int;
  max_entries : int;
  max_bytes : int;
  obs : Dvs_obs.t;
  mu : Mutex.t;  (** counters and the tmp-name tick only; I/O runs outside *)
  mutable c : counts;
  mutable tmp_tick : int;
}

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_ ?(obs = Dvs_obs.disabled) ?(epoch = format_epoch)
    ?(max_entries = 4096) ?(max_bytes = 256 * 1024 * 1024) ~root () =
  if epoch <= 0 then invalid_arg "Dvs_store.Store.open_: epoch must be > 0";
  if max_entries <= 0 || max_bytes <= 0 then
    invalid_arg "Dvs_store.Store.open_: size bounds must be > 0";
  mkdir_p root;
  { root; epoch; max_entries; max_bytes; obs; mu = Mutex.create ();
    c = { hits = 0; misses = 0; stale = 0; corrupt = 0; puts = 0;
          evictions = 0 };
    tmp_tick = 0 }

let root t = t.root

let epoch t = t.epoch

(* Volatile on purpose: cache activity depends on what previous runs
   left on disk, so it must never enter the stable diffing subset. *)
let bump t name n =
  if n > 0 then
    Metrics.Counter.add
      (Metrics.counter (Dvs_obs.metrics t.obs) ~stability:Metrics.Volatile
         name)
      ~slot:0 n

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let note_hit t kind =
  locked t (fun () -> t.c <- { t.c with hits = t.c.hits + 1 });
  bump t ("store." ^ kind ^ "_hits") 1

let note_miss t kind =
  locked t (fun () -> t.c <- { t.c with misses = t.c.misses + 1 });
  bump t ("store." ^ kind ^ "_misses") 1

let note_stale t n =
  if n > 0 then begin
    locked t (fun () -> t.c <- { t.c with stale = t.c.stale + n });
    bump t "store.stale" n
  end

let note_corrupt t n =
  if n > 0 then begin
    locked t (fun () -> t.c <- { t.c with corrupt = t.c.corrupt + n });
    bump t "store.corrupt" n
  end

let note_put t =
  locked t (fun () -> t.c <- { t.c with puts = t.c.puts + 1 });
  bump t "store.puts" 1

let note_evict t n =
  if n > 0 then begin
    locked t (fun () -> t.c <- { t.c with evictions = t.c.evictions + n });
    bump t "store.evictions" n
  end

let counts t = locked t (fun () -> t.c)

(* ---- entry I/O -------------------------------------------------------- *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match really_input_string ic (in_channel_length ic) with
        | s -> Some s
        | exception (End_of_file | Sys_error _) -> None)

let remove_quiet path = try Sys.remove path with Sys_error _ -> ()

(* The envelope renders its members in a fixed order with the payload
   last, so a file is its header members, then this separator, then the
   payload bytes, then the closing brace.  No header string can contain
   the separator: a '"' inside a JSON string is always escaped. *)
let payload_sep = ",\"payload\":"

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec at i j = j = m || (s.[i + j] = sub.[j] && at i (j + 1)) in
  let rec go i =
    if i + m > n then None else if at i 0 then Some i else go (i + 1)
  in
  go 0

type entry = {
  en_key : string;
  en_epoch : int;
  en_checksum : string;
  en_payload : Json.t;
}

let not_envelope = Error "not a dvs-store/v1 envelope"

(* The header and the payload are parsed separately, and the payload that
   is returned is the parse of exactly the bytes that were checksummed. *)
let read_entry path =
  match read_file path with
  | None -> Error "unreadable"
  | Some s -> (
    let n = String.length s in
    match find_sub s payload_sep with
    | None -> not_envelope
    | Some _ when s.[n - 1] <> '}' -> not_envelope
    | Some i -> (
      let p0 = i + String.length payload_sep in
      match Json.of_string (String.sub s 0 i ^ "}") with
      | Error e -> Error ("parse: " ^ e)
      | Ok h -> (
        match
          ( Json.member "schema" h, Json.member "key" h, Json.member "kind" h,
            Json.member "epoch" h, Json.member "checksum" h )
        with
        | ( Some (Json.String tag), Some (Json.String en_key),
            Some (Json.String _), Some (Json.Int en_epoch),
            Some (Json.String sum) )
          when tag = schema_tag -> (
          let body = String.sub s p0 (n - 1 - p0) in
          if sum <> Key.hash_hex body then Error "checksum mismatch"
          else
            match Json.of_string body with
            | Error e -> Error ("parse: " ^ e)
            | Ok en_payload ->
              Ok { en_key; en_epoch; en_checksum = sum; en_payload })
        | _ -> not_envelope)))

(* Classify one on-disk entry.  [expect] carries the canonical key when
   the caller looked the file up by name (a mismatch there is a
   filename-hash collision: valid data for some other key). *)
type status =
  | Entry of entry
  | Other_key  (** checksummed fine but belongs to a different canonical key *)
  | Stale_entry
  | Corrupt_entry of string

let classify ~epoch ?expect path =
  match read_entry path with
  | Error e -> Corrupt_entry e
  | Ok e when e.en_epoch <> epoch -> Stale_entry
  | Ok e -> (
    match expect with
    | Some canonical when canonical <> e.en_key -> Other_key
    | _ -> Entry e)

let touch path =
  try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ()

let get t key ~decode =
  let kind = Key.kind key in
  let path = Filename.concat t.root (Key.filename key) in
  if not (Sys.file_exists path) then begin
    note_miss t kind;
    None
  end
  else
    match classify ~epoch:t.epoch ~expect:(Key.canonical key) path with
    | Entry e -> (
      match decode ~checksum:e.en_checksum e.en_payload with
      | Ok v ->
        touch path;
        note_hit t kind;
        Some v
      | Error _ ->
        (* Envelope-valid but undecodable under this binary's codec:
           treat exactly like damage — drop it and recompute. *)
        remove_quiet path;
        note_corrupt t 1;
        note_miss t kind;
        None)
    | Other_key ->
      note_miss t kind;
      None
    | Stale_entry ->
      remove_quiet path;
      note_stale t 1;
      note_miss t kind;
      None
    | Corrupt_entry _ ->
      remove_quiet path;
      note_corrupt t 1;
      note_miss t kind;
      None

let get_json t key = get t key ~decode:(fun ~checksum:_ j -> Ok j)

(* ---- size bounds ------------------------------------------------------ *)

let list_entries t =
  match Sys.readdir t.root with
  | exception Sys_error _ -> []
  | files ->
    Array.to_list files
    |> List.filter_map (fun f ->
           if Filename.check_suffix f ".json" then
             let p = Filename.concat t.root f in
             match Unix.stat p with
             | exception Unix.Unix_error _ -> None
             | st when st.Unix.st_kind = Unix.S_REG -> Some (f, p, st)
             | _ -> None
           else None)

let enforce_bounds t =
  let entries = list_entries t in
  let total_bytes =
    List.fold_left (fun a (_, _, st) -> a + st.Unix.st_size) 0 entries
  in
  let n = List.length entries in
  if n > t.max_entries || total_bytes > t.max_bytes then begin
    (* Oldest mtime first; hits refresh mtime, so this is cross-process
       LRU with filesystem timestamps as the shared clock. *)
    let by_age =
      List.sort
        (fun (_, _, a) (_, _, b) -> compare a.Unix.st_mtime b.Unix.st_mtime)
        entries
    in
    let n = ref n and bytes = ref total_bytes and evicted = ref 0 in
    List.iter
      (fun (_, p, st) ->
        if !n > t.max_entries || !bytes > t.max_bytes then begin
          remove_quiet p;
          decr n;
          bytes := !bytes - st.Unix.st_size;
          incr evicted
        end)
      by_age;
    note_evict t !evicted;
    !evicted
  end
  else 0

let put t key payload =
  let body = Json.to_string payload in
  let checksum = Key.hash_hex body in
  let header =
    Json.to_string
      (Json.Obj
         [ ("schema", Json.String schema_tag);
           ("key", Json.String (Key.canonical key));
           ("kind", Json.String (Key.kind key));
           ("epoch", Json.Int t.epoch);
           ("checksum", Json.String checksum) ])
  in
  let tick =
    locked t (fun () ->
        t.tmp_tick <- t.tmp_tick + 1;
        t.tmp_tick)
  in
  let tmp =
    Filename.concat t.root
      (Printf.sprintf ".tmp-%d-%d" (Unix.getpid ()) tick)
  in
  (match open_out_bin tmp with
  | exception Sys_error _ -> ()
  | oc ->
    let wrote =
      (* The header without its closing brace, then the payload member
         spliced in as the very bytes that were checksummed: the file is
         [Json.to_string] of the whole envelope, rendered once. *)
      match
        output_substring oc header 0 (String.length header - 1);
        output_string oc payload_sep;
        output_string oc body;
        output_char oc '}'
      with
      | () ->
        close_out_noerr oc;
        true
      | exception Sys_error _ ->
        close_out_noerr oc;
        remove_quiet tmp;
        false
    in
    if wrote then begin
      (* Atomic within the store directory: concurrent writers of the
         same key race benignly (last rename wins, both were valid). *)
      match Sys.rename tmp (Filename.concat t.root (Key.filename key)) with
      | () ->
        note_put t;
        ignore (enforce_bounds t)
      | exception Sys_error _ -> remove_quiet tmp
    end);
  checksum

(* ---- maintenance ------------------------------------------------------ *)

type disk_stats = {
  entries : int;
  bytes : int;
  by_kind : (string * int) list;
}

let kind_of_filename f =
  (* "<kind>-<hex16>.json"; anything else is foreign. *)
  match String.rindex_opt f '-' with
  | Some i when i > 0 -> String.sub f 0 i
  | _ -> "?"

let disk_stats t =
  let entries = list_entries t in
  let by_kind = Hashtbl.create 8 in
  List.iter
    (fun (f, _, _) ->
      let k = kind_of_filename f in
      Hashtbl.replace by_kind k
        (1 + Option.value ~default:0 (Hashtbl.find_opt by_kind k)))
    entries;
  { entries = List.length entries;
    bytes =
      List.fold_left (fun a (_, _, st) -> a + st.Unix.st_size) 0 entries;
    by_kind =
      Hashtbl.fold (fun k n acc -> (k, n) :: acc) by_kind []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b) }

type gc_report = {
  gc_scanned : int;
  gc_kept : int;
  gc_stale : int;
  gc_corrupt : int;
  gc_evicted : int;
}

let gc t =
  let entries = list_entries t in
  let stale = ref 0 and corrupt = ref 0 and kept = ref 0 in
  List.iter
    (fun (_, p, _) ->
      match classify ~epoch:t.epoch p with
      | Entry _ | Other_key -> incr kept
      | Stale_entry ->
        remove_quiet p;
        incr stale
      | Corrupt_entry _ ->
        remove_quiet p;
        incr corrupt)
    entries;
  note_stale t !stale;
  note_corrupt t !corrupt;
  let evicted = enforce_bounds t in
  { gc_scanned = List.length entries;
    gc_kept = !kept - evicted;
    gc_stale = !stale;
    gc_corrupt = !corrupt;
    gc_evicted = evicted }

type verify_report = {
  vr_checked : int;
  vr_ok : int;
  vr_stale : int;
  vr_corrupt : (string * string) list;
}

let verify t =
  let entries = list_entries t in
  let ok = ref 0 and stale = ref 0 and corrupt = ref [] in
  List.iter
    (fun (f, p, _) ->
      match classify ~epoch:t.epoch p with
      | Entry _ | Other_key -> incr ok
      | Stale_entry -> incr stale
      | Corrupt_entry reason -> corrupt := (f, reason) :: !corrupt)
    entries;
  { vr_checked = List.length entries;
    vr_ok = !ok;
    vr_stale = !stale;
    vr_corrupt =
      List.sort (fun (a, _) (b, _) -> String.compare a b) !corrupt }
