(* Counters use one atomic cell per worker slot: increments are
   lock-free and allocation-free, and nothing aggregates until snapshot
   time.  Gauges and histograms are mutex-protected — they are meant for
   end-of-run aggregation, where the lock is noise.

   The disabled registry hands out shared no-op instruments that test
   one boolean and return; instrumented hot paths need no guards of
   their own around counter bumps. *)

type stability = Stable | Volatile

(* Slots attributed per counter; higher slot indices fold onto
   [slot mod max_slots]. *)
let max_slots = 64

module Counter = struct
  type t = { on : bool; slots : int Atomic.t array }

  let make () =
    { on = true; slots = Array.init max_slots (fun _ -> Atomic.make 0) }

  let noop = { on = false; slots = [||] }

  let add t ~slot n =
    if t.on then
      let i = if slot >= 0 && slot < max_slots then slot else
          ((slot mod max_slots) + max_slots) mod max_slots
      in
      ignore (Atomic.fetch_and_add t.slots.(i) n)

  let incr t ~slot = add t ~slot 1

  let value t = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 t.slots

  let per_slot t =
    let acc = ref [] in
    for i = Array.length t.slots - 1 downto 0 do
      let v = Atomic.get t.slots.(i) in
      if v <> 0 then acc := (i, v) :: !acc
    done;
    !acc
end

module Gauge = struct
  type t = { on : bool; mutex : Mutex.t; mutable v : float }

  let make () = { on = true; mutex = Mutex.create (); v = Float.nan }

  let noop = { on = false; mutex = Mutex.create (); v = Float.nan }

  let set t x =
    if t.on then begin
      Mutex.lock t.mutex;
      t.v <- x;
      Mutex.unlock t.mutex
    end

  let value t =
    Mutex.lock t.mutex;
    let v = t.v in
    Mutex.unlock t.mutex;
    v

  let max t x =
    if t.on then begin
      Mutex.lock t.mutex;
      if Float.is_nan t.v || x > t.v then t.v <- x;
      Mutex.unlock t.mutex
    end
end

module Histogram = struct
  (* Power-of-two buckets over the positive reals plus an underflow
     bucket for v <= 0 (index 0).  Bucket i >= 1 covers
     (2^(i-1-bias), 2^(i-bias)]; bias centers the range so microsecond
     to kilosecond durations and small counts both resolve. *)
  let n_buckets = 64

  let bias = 32

  type t = {
    on : bool;
    mutex : Mutex.t;
    buckets : int array;
    mutable count : int;
    mutable sum : float;
  }

  let make () =
    { on = true; mutex = Mutex.create (); buckets = Array.make n_buckets 0;
      count = 0; sum = 0.0 }

  let noop =
    { on = false; mutex = Mutex.create (); buckets = [||]; count = 0;
      sum = 0.0 }

  let bucket_of v =
    if not (v > 0.0) || not (Float.is_finite v) then 0
    else
      let _, e = Float.frexp v in
      Int.max 1 (Int.min (n_buckets - 1) (e + bias))

  (* Upper bound of bucket [i], for the snapshot's [le] labels. *)
  let bucket_le i = if i = 0 then 0.0 else Float.ldexp 1.0 (i - bias)

  let observe t v =
    if t.on then begin
      Mutex.lock t.mutex;
      t.buckets.(bucket_of v) <- t.buckets.(bucket_of v) + 1;
      t.count <- t.count + 1;
      if Float.is_finite v then t.sum <- t.sum +. v;
      Mutex.unlock t.mutex
    end

  let count t =
    Mutex.lock t.mutex;
    let c = t.count in
    Mutex.unlock t.mutex;
    c

  let sum t =
    Mutex.lock t.mutex;
    let s = t.sum in
    Mutex.unlock t.mutex;
    s
end

type instrument =
  | C of Counter.t
  | G of Gauge.t
  | H of Histogram.t

type t = {
  on : bool;
  mutex : Mutex.t;
  table : (string, stability * instrument) Hashtbl.t;
}

let create () =
  { on = true; mutex = Mutex.create (); table = Hashtbl.create 32 }

let disabled = { on = false; mutex = Mutex.create (); table = Hashtbl.create 1 }

let enabled t = t.on

let register t name stability make pick wrong =
  Mutex.lock t.mutex;
  let r =
    match Hashtbl.find_opt t.table name with
    | Some (_, i) -> (
      match pick i with
      | Some x -> Ok x
      | None -> Error ())
    | None ->
      let x = make () in
      Hashtbl.add t.table name (stability, wrong x);
      Ok x
  in
  Mutex.unlock t.mutex;
  match r with
  | Ok x -> x
  | Error () ->
    invalid_arg
      (Printf.sprintf "Metrics: %s already registered with another kind" name)

let counter t ?(stability = Stable) name =
  if not t.on then Counter.noop
  else
    register t name stability
      Counter.make
      (function C c -> Some c | G _ | H _ -> None)
      (fun c -> C c)

let gauge t ?(stability = Stable) name =
  if not t.on then Gauge.noop
  else
    register t name stability Gauge.make
      (function G g -> Some g | C _ | H _ -> None)
      (fun g -> G g)

let histogram t ?(stability = Stable) name =
  if not t.on then Histogram.noop
  else
    register t name stability Histogram.make
      (function H h -> Some h | C _ | G _ -> None)
      (fun h -> H h)

(* ---- snapshot -------------------------------------------------------- *)

let stability_json = function
  | Stable -> Json.String "stable"
  | Volatile -> Json.String "volatile"

let float_json f = if Float.is_finite f then Json.Float f else Json.Null

let snapshot ?(meta = []) t =
  Mutex.lock t.mutex;
  let items =
    Hashtbl.fold (fun name si acc -> (name, si) :: acc) t.table []
  in
  Mutex.unlock t.mutex;
  let items =
    List.sort (fun (a, _) (b, _) -> String.compare a b) items
  in
  let pick f =
    List.filter_map
      (fun (name, (st, i)) -> Option.map (fun j -> (name, j)) (f st i))
      items
  in
  let counters =
    pick (fun st i ->
        match i with
        | C c ->
          Some
            (Json.Obj
               [ ("total", Json.Int (Counter.value c));
                 ( "per_slot",
                   Json.Obj
                     (List.map
                        (fun (s, v) -> (string_of_int s, Json.Int v))
                        (Counter.per_slot c)) );
                 ("stability", stability_json st) ])
        | G _ | H _ -> None)
  in
  let gauges =
    pick (fun st i ->
        match i with
        | G g ->
          Some
            (Json.Obj
               [ ("value", float_json (Gauge.value g));
                 ("stability", stability_json st) ])
        | C _ | H _ -> None)
  in
  let histograms =
    pick (fun st i ->
        match i with
        | H h ->
          Mutex.lock h.Histogram.mutex;
          let buckets =
            let acc = ref [] in
            for i = Array.length h.Histogram.buckets - 1 downto 0 do
              let v = h.Histogram.buckets.(i) in
              if v <> 0 then
                acc :=
                  ( Printf.sprintf "le_%g" (Histogram.bucket_le i),
                    Json.Int v )
                  :: !acc
            done;
            !acc
          in
          let count = h.Histogram.count and sum = h.Histogram.sum in
          Mutex.unlock h.Histogram.mutex;
          Some
            (Json.Obj
               [ ("count", Json.Int count); ("sum", float_json sum);
                 ("buckets", Json.Obj buckets);
                 ("stability", stability_json st) ])
        | C _ | G _ -> None)
  in
  let meta =
    List.sort (fun (a, _) (b, _) -> String.compare a b) meta
  in
  Json.Obj
    [ ("schema", Json.String "dvs-metrics/v1");
      ("meta", Json.Obj meta);
      ( "wall",
        Json.Obj
          [ ("unix_time", Json.Float (Unix.gettimeofday ())) ] );
      ("counters", Json.Obj counters);
      ("gauges", Json.Obj gauges);
      ("histograms", Json.Obj histograms) ]

let stable_subset json =
  let stable_members kvs =
    List.filter_map
      (fun (name, v) ->
        match Json.member "stability" v with
        | Some (Json.String "stable") -> (
          (* Drop scheduling-dependent per-slot breakdowns. *)
          match v with
          | Json.Obj fields ->
            Some
              ( name,
                Json.Obj
                  (List.filter (fun (k, _) -> k <> "per_slot") fields) )
          | _ -> Some (name, v))
        | _ -> None)
      kvs
  in
  match json with
  | Json.Obj kvs ->
    Json.Obj
      (List.filter_map
         (fun (k, v) ->
           match (k, v) with
           | "wall", _ -> None
           | ("counters" | "gauges" | "histograms"), Json.Obj kvs ->
             Some (k, Json.Obj (stable_members kvs))
           | _ -> Some (k, v))
         kvs)
  | other -> other
