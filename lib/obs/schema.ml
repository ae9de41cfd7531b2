let ( let* ) r f = Result.bind r f

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

let need what j k =
  match Json.member k j with
  | Some v -> Ok v
  | None -> fail "%s: missing key %S" what k

let need_kind what k check v =
  if check v then Ok () else fail "%s: key %S has the wrong kind" what k

let is_obj = function Json.Obj _ -> true | _ -> false

let is_int = function Json.Int _ -> true | _ -> false

let is_number = function Json.Int _ | Json.Float _ | Json.Null -> true | _ -> false

let is_string = function Json.String _ -> true | _ -> false

let is_stability = function
  | Json.String ("stable" | "volatile") -> true
  | _ -> false

let check_schema_tag what expected j =
  match Json.member "schema" j with
  | Some (Json.String s) when s = expected -> Ok ()
  | Some (Json.String s) ->
    fail "%s: schema is %S, expected %S" what s expected
  | Some _ | None -> fail "%s: missing schema tag" what

let each what kvs f =
  List.fold_left
    (fun acc (name, v) ->
      let* () = acc in
      Result.map_error (Printf.sprintf "%s %S: %s" what name) (f v))
    (Ok ()) kvs

let obj_members what j k =
  let* v = need what j k in
  match v with
  | Json.Obj kvs -> Ok kvs
  | _ -> fail "%s: key %S must be an object" what k

(* ---- dvs-metrics/v1 -------------------------------------------------- *)

let validate_instrument ~required v =
  match v with
  | Json.Obj _ ->
    let* () =
      List.fold_left
        (fun acc (k, check) ->
          let* () = acc in
          let* x = need "instrument" v k in
          need_kind "instrument" k check x)
        (Ok ()) required
    in
    let* st = need "instrument" v "stability" in
    need_kind "instrument" "stability" is_stability st
  | _ -> fail "instrument must be an object"

let validate_metrics j =
  let what = "metrics" in
  let* () = check_schema_tag what "dvs-metrics/v1" j in
  let* _ = obj_members what j "meta" in
  let* _ = obj_members what j "wall" in
  let* counters = obj_members what j "counters" in
  let* gauges = obj_members what j "gauges" in
  let* histograms = obj_members what j "histograms" in
  let* () =
    each "counter" counters
      (validate_instrument
         ~required:[ ("total", is_int); ("per_slot", is_obj) ])
  in
  let* () =
    each "gauge" gauges
      (validate_instrument ~required:[ ("value", is_number) ])
  in
  each "histogram" histograms
    (validate_instrument
       ~required:
         [ ("count", is_int); ("sum", is_number); ("buckets", is_obj) ])

(* ---- dvs-trace/v1 ---------------------------------------------------- *)

let validate_trace_line j =
  let what = "trace line" in
  if not (is_obj j) then fail "%s: not an object" what
  else
    let* ts = need what j "ts" in
    let* () = need_kind what "ts" is_number ts in
    let* kind = need what j "kind" in
    let* () =
      match kind with
      | Json.String ("span" | "event") -> Ok ()
      | _ -> fail "%s: kind must be \"span\" or \"event\"" what
    in
    let* name = need what j "name" in
    let* () = need_kind what "name" is_string name in
    let* slot = need what j "slot" in
    let* () = need_kind what "slot" is_int slot in
    let* st = need what j "stability" in
    let* () = need_kind what "stability" is_stability st in
    let* attrs = need what j "attrs" in
    let* () = need_kind what "attrs" is_obj attrs in
    match (kind, Json.member "dur" j) with
    | Json.String "span", Some d -> need_kind what "dur" is_number d
    | Json.String "span", None -> fail "%s: span without dur" what
    | _, Some _ -> fail "%s: event with dur" what
    | _, None -> Ok ()

(* ---- dvs-bench/v2 ---------------------------------------------------- *)

let validate_bench j =
  let what = "bench summary" in
  let* () = check_schema_tag what "dvs-bench/v2" j in
  let* exps = need what j "experiments" in
  let* () =
    match exps with
    | Json.List xs when List.for_all is_string xs -> Ok ()
    | _ -> fail "%s: experiments must be a list of strings" what
  in
  let* () =
    List.fold_left
      (fun acc k ->
        let* () = acc in
        let* v = need what j k in
        need_kind what k is_int v)
      (Ok ())
      [ "solves"; "bb_nodes"; "lp_solves"; "lp_pivots"; "lp_flops" ]
  in
  let* () =
    List.fold_left
      (fun acc k ->
        let* () = acc in
        let* v = need what j k in
        need_kind what k is_number v)
      (Ok ())
      [ "solve_seconds_total"; "wall_seconds"; "nodes_per_second";
        "lp_solves_per_second" ]
  in
  let* walls = obj_members what j "experiment_wall_seconds" in
  let* () =
    each "experiment wall" walls (fun v ->
        if is_number v then Ok ()
        else fail "experiment_wall_seconds entries must be numbers")
  in
  let* cache = need what j "cache" in
  let* () = need_kind what "cache" is_obj cache in
  let* () =
    List.fold_left
      (fun acc k ->
        let* () = acc in
        let* v = need what cache k in
        need_kind what ("cache." ^ k) is_int v)
      (Ok ())
      [ "hits"; "misses"; "evictions" ]
  in
  let* metrics = need what j "metrics" in
  validate_metrics metrics

(* ---- dvs-service/v1 -------------------------------------------------- *)

let validate_service j =
  let what = "service report" in
  let* () = check_schema_tag what "dvs-service/v1" j in
  let* leg = need what j "leg" in
  let* () = need_kind what "leg" is_string leg in
  let* requests = need what j "requests" in
  let* () = need_kind what "requests" is_int requests in
  let* classes = obj_members what j "classes" in
  let* () =
    each "class count" classes (fun v ->
        if is_int v then Ok () else fail "class counts must be integers")
  in
  let* latency = need what j "latency_ms" in
  let* () = need_kind what "latency_ms" is_obj latency in
  let* () =
    List.fold_left
      (fun acc k ->
        let* () = acc in
        let* v = need what latency k in
        need_kind what ("latency_ms." ^ k) is_number v)
      (Ok ())
      [ "mean"; "p50"; "p90"; "p99" ]
  in
  let* () =
    List.fold_left
      (fun acc k ->
        let* () = acc in
        let* v = need what j k in
        need_kind what k is_number v)
      (Ok ())
      [ "shed_rate"; "batched_fraction"; "savings_pct_mean"; "wall_seconds" ]
  in
  let* retries = need what j "retries" in
  need_kind what "retries" is_int retries

(* ---- dvs-store/v1 ---------------------------------------------------- *)

let validate_store j =
  let what = "store entry" in
  let* () = check_schema_tag what "dvs-store/v1" j in
  let* key = need what j "key" in
  let* () = need_kind what "key" is_string key in
  let* kind = need what j "kind" in
  let* () =
    match kind with
    | Json.String ("sim" | "solve" | "sweep") -> Ok ()
    | Json.String s -> fail "%s: unknown kind %S" what s
    | _ -> fail "%s: kind must be a string" what
  in
  let* epoch = need what j "epoch" in
  let* () = need_kind what "epoch" is_int epoch in
  let* checksum = need what j "checksum" in
  let* () = need_kind what "checksum" is_string checksum in
  let* payload = need what j "payload" in
  need_kind what "payload" is_obj payload

let bench_summary ?(experiment_walls = []) ~metrics ~experiments
    ~wall_seconds () =
  (* Every instrument this summary reads is volatile (work counts, wall
     clock).  The lookups say so explicitly because find-or-register
     would otherwise *register* absent ones under the Stable default —
     and a run that skipped the solver entirely (a fully warm
     experiment-store run) would then carry stable zeros a live run
     classifies volatile, breaking stable-subset equality. *)
  let total name =
    Metrics.Counter.value
      (Metrics.counter metrics ~stability:Metrics.Volatile name)
  in
  let solves = total "solver.solves" in
  let bb_nodes = total "solver.nodes" in
  let lp_solves = total "solver.lp_solves" in
  let lp_pivots = total "solver.lp_pivots" in
  let lp_flops = total "lp.flops" in
  let solve_seconds =
    Metrics.Histogram.sum
      (Metrics.histogram metrics ~stability:Metrics.Volatile
         "solver.solve_seconds")
  in
  let rate n = if solve_seconds > 0.0 then float_of_int n /. solve_seconds else 0.0 in
  let hits = total "lp_cache.hits" in
  let misses = total "lp_cache.misses" in
  Json.Obj
    [ ("schema", Json.String "dvs-bench/v2");
      ("experiments", Json.List (List.map (fun e -> Json.String e) experiments));
      ("solves", Json.Int solves);
      ("bb_nodes", Json.Int bb_nodes);
      ("lp_solves", Json.Int lp_solves);
      ("lp_pivots", Json.Int lp_pivots);
      (* Linear-algebra work actually performed inside the simplex kernel
         (PR 10): floating-point operations charged per entry touched, so
         per-pivot linear-algebra cost is visible even when pivot counts
         are bit-identical. *)
      ("lp_flops", Json.Int lp_flops);
      (* Sparse-LU basis activity: optional in the validator so baselines
         written before these counters existed stay diffable. *)
      ( "lu",
        Json.Obj
          [ ("refactorizations", Json.Int (total "lu.refactorizations"));
            ("restores", Json.Int (total "lu.restores"));
            ("residual_refactors", Json.Int (total "lu.residual_refactors"));
            ( "residual_max",
              let v =
                Metrics.Gauge.value
                  (Metrics.gauge metrics ~stability:Metrics.Volatile
                     "lu.residual_max")
              in
              Json.Float (if Float.is_nan v then 0.0 else v) );
            ("fill_in_nnz", Json.Int (total "lu.fill_in_nnz"));
            ("eta_nnz", Json.Int (total "lu.eta_nnz"));
            ("ftran_sparse_hits", Json.Int (total "lu.ftran_sparse_hits"));
            ("btran_sparse_hits", Json.Int (total "lu.btran_sparse_hits"))
          ] );
      ("solve_seconds_total", Json.Float solve_seconds);
      ("wall_seconds", Json.Float wall_seconds);
      ( "experiment_wall_seconds",
        Json.Obj
          (List.map (fun (e, s) -> (e, Json.Float s)) experiment_walls) );
      ("nodes_per_second", Json.Float (rate bb_nodes));
      ("lp_solves_per_second", Json.Float (rate lp_solves));
      (* Summarized-verification activity: wall-time gates on the
         `reproduce' experiment only engage when both summaries ran with
         warm sessions (> 0 here); absent from older baselines, so the
         validator treats it as optional. *)
      ("sim_summary_hits", Json.Int (total "sim.summary_hits"));
      (* Continuous-bound pre-pruning (PR 9): sweep points answered from
         the lifted incumbent under the exact continuous certificate.
         Optional in the validator, so pre-PR 9 baselines stay
         diffable. *)
      ( "points_pruned_by_bound",
        Json.Int (total "sweep.points_pruned_by_bound") );
      (* Service-experiment gauges (PR 7): set by `bench service' into
         the shared registry; omitted (never null) when the experiment
         did not run, so older baselines stay diffable. *)
      ( "service",
        let g name =
          Metrics.Gauge.value
            (Metrics.gauge metrics ~stability:Metrics.Volatile name)
        in
        let opt k v = if Float.is_nan v then [] else [ (k, Json.Float v) ] in
        Json.Obj
          (opt "p99_seconds" (g "service.p99_seconds")
          @ opt "shed_rate" (g "service.shed_rate")) );
      (* Experiment-store activity (PR 8): all zeros when no store was
         active, so older baselines stay diffable.  A warm run shows
         hits with the volatile work counters near zero — the store's
         whole point. *)
      ( "store",
        Json.Obj
          [ ("sim_hits", Json.Int (total "store.sim_hits"));
            ("sim_misses", Json.Int (total "store.sim_misses"));
            ("solve_hits", Json.Int (total "store.solve_hits"));
            ("solve_misses", Json.Int (total "store.solve_misses"));
            ("sweep_hits", Json.Int (total "store.sweep_hits"));
            ("sweep_misses", Json.Int (total "store.sweep_misses"));
            ("stale", Json.Int (total "store.stale"));
            ("corrupt", Json.Int (total "store.corrupt"));
            ("evictions", Json.Int (total "store.evictions")) ] );
      ( "cache",
        Json.Obj
          [ ("hits", Json.Int hits);
            ("misses", Json.Int misses);
            ("evictions", Json.Int (total "lp_cache.evictions"));
            ( "hit_rate",
              Json.Float
                (if hits + misses > 0 then
                   float_of_int hits /. float_of_int (hits + misses)
                 else 0.0) ) ] );
      ("metrics", Metrics.snapshot metrics) ]
