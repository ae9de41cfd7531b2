module P = Protocol
module Json = Dvs_obs.Json
module Rng = Dvs_workloads.Rng

type leg = {
  name : string;
  requests : int;
  rate_hz : float;
  clients : int;
  workloads : (string * string option) list;
  fracs : float list;
  budget_s : float option;
  chaos : P.chaos option;
  seed : int;
  retries : int;
}

let leg ?(clients = 4) ?(workloads = [ ("adpcm", None) ])
    ?(fracs = [ 0.3; 0.5; 0.7 ]) ?budget_s ?chaos ?(seed = 42) ?(retries = 5)
    ~name ~requests ~rate_hz () =
  if requests < 1 then invalid_arg "Loadgen.leg: requests must be >= 1";
  if not (rate_hz > 0.0) then invalid_arg "Loadgen.leg: rate_hz must be > 0";
  if clients < 1 then invalid_arg "Loadgen.leg: clients must be >= 1";
  if workloads = [] then invalid_arg "Loadgen.leg: workloads must be non-empty";
  if fracs = [] then invalid_arg "Loadgen.leg: fracs must be non-empty";
  { name; requests; rate_hz; clients; workloads; fracs; budget_s; chaos;
    seed; retries }

type outcome = {
  latency_ms : float;
  cls : P.outcome_class;
  batched : int;
  savings : float option;
  retried : int;
}

type stats = {
  leg_name : string;
  sent : int;
  classes : (P.outcome_class * int) list;
  mean_ms : float;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  shed_rate : float;
  retries_used : int;
  batched_fraction : float;
  savings_mean_pct : float option;
  wall_s : float;
}

let class_count s cls =
  match List.assoc_opt cls s.classes with Some n -> n | None -> 0

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    sorted.(Int.max 0 (Int.min (n - 1) i))

let run ~socket (l : leg) =
  let n = l.requests in
  (* Pre-generate the whole stream from the seed, in index order, so the
     same (name, seed) regenerates the identical ids, fractions and
     arrival schedule. *)
  let rng = Rng.create l.seed in
  let wl = Array.of_list l.workloads in
  let fr = Array.of_list l.fracs in
  let reqs = Array.make n { P.id = ""; body = P.Ping } in
  for k = 0 to n - 1 do
    let workload, input = wl.(k mod Array.length wl) in
    let frac = fr.(Rng.int rng (Array.length fr)) in
    reqs.(k) <-
      { P.id = Printf.sprintf "%s-%05d" l.name k;
        body =
          P.Optimize
            { workload; input; deadline_frac = frac; budget_s = l.budget_s;
              chaos = l.chaos } }
  done;
  let arrivals = Array.make n 0.0 in
  let t_acc = ref 0.0 in
  for k = 0 to n - 1 do
    let u = (float_of_int (Rng.int rng 1_000_000) +. 1.0) /. 1_000_001.0 in
    t_acc := !t_acc -. (Float.log u /. l.rate_hz);
    arrivals.(k) <- !t_acc
  done;
  let results = Array.make n None in
  let next = ref 0 in
  let mu = Mutex.create () in
  let start = Unix.gettimeofday () in
  let worker () =
    let c = Client.connect ~socket in
    let rec go () =
      Mutex.lock mu;
      let k = !next in
      if k >= n then Mutex.unlock mu
      else begin
        incr next;
        Mutex.unlock mu;
        let due = start +. arrivals.(k) in
        let now = Unix.gettimeofday () in
        if due > now then Thread.delay (due -. now);
        let t0 = Unix.gettimeofday () in
        let reply, retried =
          Client.request ~retries:l.retries ~backoff_s:0.02 c reqs.(k)
        in
        let latency_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
        let savings =
          match reply.P.body with
          | P.Scheduled s -> s.P.savings_pct
          | _ -> None
        in
        results.(k) <-
          Some
            { latency_ms; cls = P.class_of_reply reply;
              batched = reply.P.batched; savings; retried };
        go ()
      end
    in
    go ();
    Client.close c
  in
  let threads = List.init l.clients (fun _ -> Thread.create worker ()) in
  List.iter Thread.join threads;
  let wall_s = Unix.gettimeofday () -. start in
  let outs = Array.to_list results |> List.filter_map Fun.id in
  let sent = List.length outs in
  let lat =
    List.map (fun o -> o.latency_ms) outs
    |> List.sort compare |> Array.of_list
  in
  let mean_ms =
    if sent = 0 then 0.0
    else List.fold_left (fun a o -> a +. o.latency_ms) 0.0 outs /. float_of_int sent
  in
  let classes =
    List.map
      (fun c -> (c, List.length (List.filter (fun o -> o.cls = c) outs)))
      P.all_classes
  in
  let count cls = match List.assoc_opt cls classes with Some k -> k | None -> 0 in
  let frac_of k = if sent = 0 then 0.0 else float_of_int k /. float_of_int sent in
  let savings_vals = List.filter_map (fun o -> o.savings) outs in
  { leg_name = l.name; sent; classes; mean_ms;
    p50_ms = percentile lat 0.5; p90_ms = percentile lat 0.9;
    p99_ms = percentile lat 0.99; shed_rate = frac_of (count P.Overloaded);
    retries_used = List.fold_left (fun a o -> a + o.retried) 0 outs;
    batched_fraction =
      frac_of (List.length (List.filter (fun o -> o.batched >= 2) outs));
    savings_mean_pct =
      (match savings_vals with
      | [] -> None
      | vs ->
        Some (List.fold_left ( +. ) 0.0 vs /. float_of_int (List.length vs)));
    wall_s }

let to_json s =
  Json.Obj
    [ ("schema", Json.String "dvs-service/v1");
      ("leg", Json.String s.leg_name);
      ("requests", Json.Int s.sent);
      ( "classes",
        Json.Obj
          (List.map
             (fun (c, k) -> (P.class_name c, Json.Int k))
             s.classes) );
      ( "latency_ms",
        Json.Obj
          [ ("mean", Json.Float s.mean_ms); ("p50", Json.Float s.p50_ms);
            ("p90", Json.Float s.p90_ms); ("p99", Json.Float s.p99_ms) ] );
      ("shed_rate", Json.Float s.shed_rate);
      ("retries", Json.Int s.retries_used);
      ("batched_fraction", Json.Float s.batched_fraction);
      ( "savings_pct_mean",
        match s.savings_mean_pct with
        | Some v -> Json.Float v
        | None -> Json.Null );
      ("wall_seconds", Json.Float s.wall_s) ]

let pp ppf s =
  Format.fprintf ppf
    "@[<v>leg %s: %d requests in %.2fs@,\
     latency ms: mean %.1f p50 %.1f p90 %.1f p99 %.1f@,\
     shed rate %.3f (%d retries), batched %.0f%%%s@,"
    s.leg_name s.sent s.wall_s s.mean_ms s.p50_ms s.p90_ms s.p99_ms
    s.shed_rate s.retries_used
    (100.0 *. s.batched_fraction)
    (match s.savings_mean_pct with
    | Some v -> Printf.sprintf ", mean savings %.1f%%" v
    | None -> "");
  List.iter
    (fun (c, k) ->
      if k > 0 then Format.fprintf ppf "  %-18s %d@," (P.class_name c) k)
    s.classes;
  Format.fprintf ppf "@]"
