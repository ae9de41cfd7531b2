(* Per-slot buffered trace.  Each slot buffer has its own mutex (cheap,
   uncontended in the one-domain-per-slot discipline), a shared atomic
   budget bounds total entries, and timestamps are clamped monotonic per
   slot so slot-local order and timestamp order agree. *)

type value =
  | Bool of bool
  | Int of int
  | Float of float
  | String of string

type stability = Stable | Volatile

type entry = {
  name : string;
  ts : float;
  dur : float option;
  slot : int;
  stability : stability;
  attrs : (string * value) list;
}

type slot_buf = {
  mutex : Mutex.t;
  mutable items : entry list;  (* newest first *)
  mutable last_ts : float;
}

type t = {
  on : bool;
  epoch : float;
  n_slots : int;
  slots : slot_buf array;
  budget : int Atomic.t;  (* remaining capacity *)
  dropped_n : int Atomic.t;
}

let n_slots_default = 64

let make_slots n =
  Array.init n (fun _ ->
      { mutex = Mutex.create (); items = []; last_ts = 0.0 })

let create ?(capacity = 65536) () =
  if capacity < 0 then invalid_arg "Trace.create: capacity must be >= 0";
  { on = true; epoch = Unix.gettimeofday (); n_slots = n_slots_default;
    slots = make_slots n_slots_default; budget = Atomic.make capacity;
    dropped_n = Atomic.make 0 }

let disabled =
  { on = false; epoch = 0.0; n_slots = 1; slots = make_slots 1;
    budget = Atomic.make 0; dropped_n = Atomic.make 0 }

let enabled t = t.on

let slot_of t slot =
  if slot >= 0 && slot < t.n_slots then slot
  else ((slot mod t.n_slots) + t.n_slots) mod t.n_slots

let record t ~slot ~stability ~dur ~attrs ~t0 name =
  if Atomic.fetch_and_add t.budget (-1) <= 0 then begin
    ignore (Atomic.fetch_and_add t.budget 1);
    Atomic.incr t.dropped_n
  end
  else begin
    let sb = t.slots.(slot_of t slot) in
    Mutex.lock sb.mutex;
    let ts = Float.max t0 sb.last_ts in
    sb.last_ts <- ts;
    sb.items <-
      { name; ts; dur; slot; stability; attrs } :: sb.items;
    Mutex.unlock sb.mutex
  end

let now t = Unix.gettimeofday () -. t.epoch

let event t ?(slot = 0) ?(stability = Volatile) ?(attrs = []) name =
  if t.on then
    record t ~slot ~stability ~dur:None ~attrs ~t0:(now t) name

type span = {
  sp_live : bool;
  sp_name : string;
  sp_slot : int;
  sp_stability : stability;
  sp_attrs : (string * value) list;
  sp_t0 : float;
}

let dummy_span =
  { sp_live = false; sp_name = ""; sp_slot = 0; sp_stability = Volatile;
    sp_attrs = []; sp_t0 = 0.0 }

let start t ?(slot = 0) ?(stability = Volatile) ?(attrs = []) name =
  if not t.on then dummy_span
  else
    { sp_live = true; sp_name = name; sp_slot = slot;
      sp_stability = stability; sp_attrs = attrs; sp_t0 = now t }

let finish t ?(attrs = []) sp =
  if sp.sp_live && t.on then
    record t ~slot:sp.sp_slot ~stability:sp.sp_stability
      ~dur:(Some (Float.max 0.0 (now t -. sp.sp_t0)))
      ~attrs:(sp.sp_attrs @ attrs) ~t0:sp.sp_t0 sp.sp_name

let entries t =
  let all =
    Array.fold_left
      (fun acc sb ->
        Mutex.lock sb.mutex;
        let items = sb.items in
        Mutex.unlock sb.mutex;
        List.rev_append items acc)
      [] t.slots
  in
  List.sort
    (fun a b ->
      let c = Float.compare a.ts b.ts in
      if c <> 0 then c
      else
        let c = Int.compare a.slot b.slot in
        if c <> 0 then c else String.compare a.name b.name)
    all

let dropped t = Atomic.get t.dropped_n

let value_json = function
  | Bool b -> Json.Bool b
  | Int n -> Json.Int n
  | Float f -> if Float.is_finite f then Json.Float f else Json.Null
  | String s -> Json.String s

let entry_json e =
  let base =
    [ ("ts", Json.Float e.ts);
      ("kind", Json.String (match e.dur with Some _ -> "span" | None -> "event")) ]
  in
  let dur =
    match e.dur with Some d -> [ ("dur", Json.Float d) ] | None -> []
  in
  Json.Obj
    (base
    @ [ ("name", Json.String e.name); ("slot", Json.Int e.slot);
        ( "stability",
          Json.String
            (match e.stability with
            | Stable -> "stable"
            | Volatile -> "volatile") ) ]
    @ dur
    @ [ ("attrs", Json.Obj (List.map (fun (k, v) -> (k, value_json v)) e.attrs)) ])

let write_jsonl t oc =
  let es = entries t in
  List.iter
    (fun e ->
      Json.to_channel oc (entry_json e);
      output_char oc '\n')
    es;
  Json.to_channel oc
    (Json.Obj
       [ ("ts", Json.Float (now t)); ("kind", Json.String "event");
         ("name", Json.String "trace.summary"); ("slot", Json.Int 0);
         ("stability", Json.String "volatile");
         ( "attrs",
           Json.Obj
             [ ("entries", Json.Int (List.length es));
               ("dropped", Json.Int (dropped t)) ] ) ]);
  output_char oc '\n'

let stable_set t =
  entries t
  |> List.filter_map (fun e ->
         match e.stability with
         | Volatile -> None
         | Stable ->
           Some
             (Json.to_string
                (Json.Obj
                   [ ("name", Json.String e.name);
                     ( "attrs",
                       Json.Obj
                         (List.map (fun (k, v) -> (k, value_json v)) e.attrs)
                     ) ])))
  |> List.sort String.compare
