(* dvs_obs subsystem tests: JSON round-trips, schema validation, the
   zero-allocation disabled path, jobs=1 vs jobs=4 stable-set
   determinism, and end-to-end instrumentation of the solver, the
   simulator and the pipeline's degradation ladder. *)

module Obs = Dvs_obs
module Json = Dvs_obs.Json
module Metrics = Dvs_obs.Metrics
module Trace = Dvs_obs.Trace
module Schema = Dvs_obs.Schema
module Solver = Dvs_milp.Solver
module Fault = Dvs_milp.Fault
module Lp_cache = Dvs_milp.Lp_cache
module Model = Dvs_lp.Model
module Expr = Dvs_lp.Expr
open Dvs_core

(* --- Json ------------------------------------------------------------- *)

let test_json_roundtrip () =
  let j =
    Json.Obj
      [ ("a", Json.Int 3); ("b", Json.Float 1.0);
        ( "c",
          Json.List
            [ Json.Null; Json.Bool true; Json.String "x\n\"y\" \xe2\x82\xac" ]
        );
        ("d", Json.Float 0.1); ("e", Json.Float (-2.5e-9)) ]
  in
  let s = Json.to_string j in
  (match Json.of_string s with
  | Ok j' -> Alcotest.(check bool) "round-trip equal" true (Json.equal j j')
  | Error e -> Alcotest.failf "re-parse failed: %s" e);
  Alcotest.(check bool)
    "integral float keeps a dot" true
    (String.contains (Json.to_string (Json.Float 1.0)) '.');
  (match Json.of_string "{\"u\": \"\\u20ac\"}" with
  | Ok j ->
    Alcotest.(check (option string))
      "unicode escape decodes to UTF-8" (Some "\xe2\x82\xac")
      (Option.bind (Json.member "u" j) Json.to_string_opt)
  | Error e -> Alcotest.failf "unicode parse failed: %s" e);
  Alcotest.(check string)
    "non-finite floats print as null" "null"
    (Json.to_string (Json.Float Float.nan))

(* --- disabled path ----------------------------------------------------- *)

(* The acceptance bar for production overhead: a disabled registry and
   trace must not allocate on the hot path (their operations are a
   boolean test).  10k ops at even one word each would show up as >80kB
   here; the slack covers the Gc.allocated_bytes float boxes only. *)
let test_disabled_no_alloc () =
  let c = Metrics.counter Metrics.disabled "x" in
  let g = Metrics.gauge Metrics.disabled "g" in
  let h = Metrics.histogram Metrics.disabled "h" in
  let tr = Trace.disabled in
  Metrics.Counter.incr c ~slot:0;
  Trace.event tr "warm";
  Trace.finish tr (Trace.start tr "warm");
  let a0 = Gc.allocated_bytes () in
  for i = 0 to 9_999 do
    Metrics.Counter.incr c ~slot:0;
    Metrics.Counter.add c ~slot:1 i;
    Metrics.Gauge.set g 1.0;
    Metrics.Histogram.observe h 2.0;
    Trace.event tr "e";
    Trace.finish tr (Trace.start tr "s")
  done;
  let a1 = Gc.allocated_bytes () in
  let delta = a1 -. a0 in
  if delta > 256.0 then
    Alcotest.failf "disabled instruments allocated %.0f bytes over 10k ops"
      delta

(* --- solver instrumentation ------------------------------------------- *)

(* SOS1 groups under a shared budget — the DVS formulation's shape (same
   as the resilience suite). *)
let sos1_model ~groups ~modes ~budget =
  let m = Model.create () in
  let k =
    Array.init groups (fun _ -> Array.init modes (fun _ -> Model.binary m))
  in
  let cost g j = float_of_int (((g * 7) + (j * 3)) mod 11) +. 1.0 in
  let time g j =
    float_of_int (modes - j) +. (0.25 *. float_of_int (g mod 3))
  in
  for g = 0 to groups - 1 do
    Model.add_constraint m
      (Expr.of_terms (List.init modes (fun j -> (1.0, k.(g).(j)))))
      Model.Eq 1.0
  done;
  let all w =
    Expr.of_terms
      (List.concat_map
         (fun g -> List.init modes (fun j -> (w g j, k.(g).(j))))
         (List.init groups Fun.id))
  in
  Model.add_constraint m (all time) Model.Le budget;
  Model.set_objective m Model.Minimize (all cost);
  (m, k)

let all_fastest k ~modes =
  Array.to_list k
  |> List.concat_map (fun group ->
         List.init modes (fun j ->
             (group.(j), if j = modes - 1 then 1.0 else 0.0)))

(* n-item 0/1 knapsack whose LP relaxation is fractional at every level,
   so branch and bound explores a real tree (the SOS1 model above solves
   at the root). *)
let knapsack_n n =
  let m = Model.create () in
  let xs = Array.init n (fun _ -> Model.binary m) in
  let w i = float_of_int (((i * 13) mod 19) + 5) in
  let v i = float_of_int (((i * 17) mod 23) + 7) in
  let total = Array.init n w |> Array.fold_left ( +. ) 0.0 in
  Model.add_constraint m
    (Expr.of_terms (List.init n (fun i -> (w i, xs.(i)))))
    Model.Le (0.45 *. total);
  Model.set_objective m Model.Maximize
    (Expr.of_terms (List.init n (fun i -> (v i, xs.(i)))));
  m

(* One instrumented solve with a deterministic injected crash; returns
   the stable projections that must match at any job count. *)
let stable_run jobs =
  let obs = Obs.create () in
  let fault = Fault.make ~crash_at_nodes:[ 1 ] () in
  let m, k = sos1_model ~groups:8 ~modes:3 ~budget:26.0 in
  let config =
    Solver.Config.make ~jobs ~fault ~obs ()
    |> Solver.Config.with_sos1
         (Array.to_list k |> List.map Array.to_list)
    |> Solver.Config.with_warm_start (all_fastest k ~modes:3)
  in
  let r = Solver.solve ~config m in
  (match r.Solver.outcome with
  | Solver.Degraded _ -> ()
  | o ->
    Alcotest.failf "jobs=%d: expected the injected crash to degrade, got %a"
      jobs Solver.pp_outcome o);
  ( Json.to_string
      (Metrics.stable_subset (Metrics.snapshot (Obs.metrics obs))),
    Trace.stable_set (Obs.trace obs) )

let test_stable_sets_match_across_jobs () =
  let m1, t1 = stable_run 1 in
  let m4, t4 = stable_run 4 in
  Alcotest.(check string) "stable metrics subsets identical" m1 m4;
  Alcotest.(check (list string)) "stable event sets identical" t1 t4;
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  let has name = List.exists (fun s -> contains s name) t1 in
  Alcotest.(check bool) "fault.crash in stable set" true (has "fault.crash");
  Alcotest.(check bool)
    "solver.warm_start in stable set" true (has "solver.warm_start")

(* The issue's acceptance check: the JSONL trace parses, every line
   passes schema validation, and the per-worker node counts sum to the
   solver's reported node total. *)
let test_trace_worker_nodes_sum () =
  let obs = Obs.create () in
  let m = knapsack_n 14 in
  let config = Solver.Config.make ~jobs:4 ~obs () in
  let r = Solver.solve ~config m in
  Alcotest.(check bool)
    "tree search did real work" true (r.Solver.stats.Solver.nodes > 1);
  let file = Filename.temp_file "dvs_obs" ".jsonl" in
  let oc = open_out file in
  Trace.write_jsonl (Obs.trace obs) oc;
  close_out oc;
  let ic = open_in file in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove file;
  let lines =
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.trim l <> "")
  in
  Alcotest.(check bool) "trace is non-empty" true (List.length lines > 1);
  let sum =
    List.fold_left
      (fun acc line ->
        match Json.of_string line with
        | Error e -> Alcotest.failf "unparseable JSONL line: %s" e
        | Ok j ->
          (match Schema.validate_trace_line j with
          | Ok () -> ()
          | Error e -> Alcotest.failf "trace line schema violation: %s" e);
          if
            Option.bind (Json.member "name" j) Json.to_string_opt
            = Some "solver.worker"
          then
            acc
            + Option.value ~default:0
                (Option.bind (Json.member "attrs" j) (fun a ->
                     Option.bind (Json.member "nodes" a) Json.to_int))
          else acc)
      0 lines
  in
  Alcotest.(check int)
    "per-worker trace node counts sum to stats.nodes"
    r.Solver.stats.Solver.nodes sum;
  Alcotest.(check int)
    "solver.nodes counter agrees"
    r.Solver.stats.Solver.nodes
    (Metrics.Counter.value (Metrics.counter (Obs.metrics obs) "solver.nodes"))

(* Lp_cache evictions and hit/miss deltas must surface both in the
   per-solve stats and in the registry counters.  Only basis-free solves
   consult the cache, so three distinct models through a one-entry cache
   evict through their root lookups. *)
let test_cache_counters_surface () =
  let cache = Lp_cache.create ~max_entries:1 () in
  let obs = Obs.metrics_only () in
  let config = Solver.Config.make ~jobs:1 ~cache ~obs () in
  let stats =
    List.map
      (fun n -> (Solver.solve ~config (knapsack_n n)).Solver.stats)
      [ 10; 11; 12 ]
  in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 stats in
  let evictions = sum (fun s -> s.Solver.cache_evictions) in
  Alcotest.(check bool) "one-entry cache evicts across the solves" true
    (evictions > 0);
  let value name = Metrics.Counter.value (Metrics.counter (Obs.metrics obs) name) in
  Alcotest.(check int)
    "lp_cache.evictions counter matches stats" evictions
    (value "lp_cache.evictions");
  Alcotest.(check int)
    "lp_cache.hits counter matches stats"
    (sum (fun s -> s.Solver.cache_hits))
    (value "lp_cache.hits");
  Alcotest.(check int)
    "lp_cache.misses counter matches stats"
    (sum (fun s -> s.Solver.cache_misses))
    (value "lp_cache.misses")

(* Every node below the root warm starts from its parent's basis and
   bypasses the cache: a whole tree makes exactly one lookup, its root. *)
let test_cache_basis_free_only () =
  let cache = Lp_cache.create () in
  let config = Solver.Config.make ~jobs:1 ~cache () in
  let stats = (Solver.solve ~config (knapsack_n 12)).Solver.stats in
  Alcotest.(check bool) "the search branched" true (stats.Solver.nodes > 1);
  Alcotest.(check int)
    "one cache lookup, the root" 1
    (stats.Solver.cache_hits + stats.Solver.cache_misses)

(* --- snapshots and export schemas ------------------------------------- *)

let test_metrics_snapshot_roundtrip () =
  let mx = Metrics.create () in
  let c = Metrics.counter mx ~stability:Metrics.Stable "a.count" in
  Metrics.Counter.add c ~slot:2 5;
  Metrics.Counter.incr
    (Metrics.counter mx ~stability:Metrics.Volatile "b.count")
    ~slot:0;
  Metrics.Gauge.set (Metrics.gauge mx "g") 2.5;
  Metrics.Histogram.observe
    (Metrics.histogram mx ~stability:Metrics.Stable "h")
    0.25;
  let snap = Metrics.snapshot ~meta:[ ("seed", Json.Int 42) ] mx in
  (match Schema.validate_metrics snap with
  | Ok () -> ()
  | Error e -> Alcotest.failf "snapshot schema violation: %s" e);
  (match Json.of_string (Json.to_string snap) with
  | Ok j ->
    Alcotest.(check bool) "snapshot JSON round-trips" true (Json.equal snap j)
  | Error e -> Alcotest.failf "snapshot re-parse failed: %s" e);
  let stable = Metrics.stable_subset snap in
  let counters =
    match Json.member "counters" stable with
    | Some c -> c
    | None -> Alcotest.fail "stable subset lost its counters section"
  in
  Alcotest.(check bool)
    "volatile counter dropped" true
    (Json.member "b.count" counters = None);
  Alcotest.(check bool)
    "stable counter kept" true
    (Json.member "a.count" counters <> None);
  Alcotest.(check bool)
    "wall section dropped" true
    (Json.member "wall" stable = None)

let test_bench_summary_roundtrip () =
  let obs = Obs.metrics_only () in
  let m, _ = sos1_model ~groups:6 ~modes:3 ~budget:20.0 in
  let r = Solver.solve ~config:(Solver.Config.make ~jobs:1 ~obs ()) m in
  let j =
    Schema.bench_summary ~experiment_walls:[ ("unit", 0.25) ]
      ~metrics:(Obs.metrics obs) ~experiments:[ "unit" ] ~wall_seconds:0.5 ()
  in
  (match Schema.validate_bench j with
  | Ok () -> ()
  | Error e -> Alcotest.failf "bench schema violation: %s" e);
  (match Json.of_string (Json.to_string j) with
  | Ok j' ->
    Alcotest.(check bool) "bench JSON round-trips" true (Json.equal j j')
  | Error e -> Alcotest.failf "bench re-parse failed: %s" e);
  Alcotest.(check (option int))
    "bb_nodes total matches the solve"
    (Some r.Solver.stats.Solver.nodes)
    (Option.bind (Json.member "bb_nodes" j) Json.to_int);
  Alcotest.(check (option int))
    "one solve recorded" (Some 1)
    (Option.bind (Json.member "solves" j) Json.to_int);
  Alcotest.(check bool)
    "per-experiment wall recorded" true
    (Option.bind (Json.member "experiment_wall_seconds" j)
       (Json.member "unit")
    <> None)

(* --- pipeline + simulator instrumentation ------------------------------ *)

(* Memory-bound streaming phase + compute-bound phase, small enough to
   profile quickly (same shape as the resilience suite). *)
let test_src =
  "int a[512]; int s; int i; int j;\n\
   s = 0;\n\
   for (i = 0; i < 512; i = i + 1) { s = s + a[i]; }\n\
   for (i = 0; i < 50; i = i + 1) {\n\
   \  for (j = 0; j < 10; j = j + 1) { s = s + i * j; }\n\
   }"

let tiny_config =
  Dvs_machine.Config.default
    ~l1d:{ Dvs_machine.Config.size_bytes = 128; assoc = 2; block_bytes = 16;
           latency_cycles = 1 }
    ~l2:{ Dvs_machine.Config.size_bytes = 512; assoc = 2; block_bytes = 16;
          latency_cycles = 4 }
    ~dram_latency:1e-6 ()

let compiled = lazy (Dvs_lang.Lower.compile_string test_src)

let memory () =
  let _, layout = Lazy.force compiled in
  Array.init layout.Dvs_lang.Lower.memory_words (fun i -> i mod 17)

let profile_cached =
  lazy
    (let cfg, _ = Lazy.force compiled in
     Dvs_profile.Profile.collect tiny_config cfg ~memory:(memory ()))

let mid_deadline () =
  let p = Lazy.force profile_cached in
  let n = Dvs_power.Mode.size tiny_config.Dvs_machine.Config.mode_table in
  let t_fast = Dvs_profile.Profile.pinned_time p ~mode:(n - 1) in
  let t_slow = Dvs_profile.Profile.pinned_time p ~mode:0 in
  t_fast +. (0.5 *. (t_slow -. t_fast))

(* Exhausting every pivot budget forces the ladder down past the MILP
   rungs; the trace must carry the whole story: fault firings, rung
   rejections, the accepted rung, and the verification simulator's
   events — while the registry picks up the simulator's stable
   counters. *)
let test_pipeline_ladder_events () =
  let obs = Obs.create () in
  let solver =
    Solver.Config.make ~jobs:1 ~max_nodes:500
      ~fault:(Fault.make ~exhaust_pivots_every:1 ())
      ()
  in
  (* The continuous-bound engine is ablated here: its rounded seed would
     ride out pivot exhaustion inside the MILP rung and the ladder would
     have no rejections to trace. *)
  let config =
    Pipeline.Config.make ~solver ~continuous_bound:false ()
    |> Pipeline.Config.with_obs obs
  in
  let p = Lazy.force profile_cached in
  let r =
    Pipeline.optimize_multi ~config
      ~regulator:tiny_config.Dvs_machine.Config.regulator ~memory:(memory ())
      [ { Formulation.profile = p; weight = 1.0; deadline = mid_deadline () } ]
  in
  Alcotest.(check bool)
    "ladder descended" true (r.Pipeline.descents <> []);
  let names =
    Trace.entries (Obs.trace obs) |> List.map (fun e -> e.Trace.name)
  in
  let has n = List.mem n names in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " recorded in trace") true (has n))
    [ "pipeline.optimize"; "pipeline.rung_reject"; "pipeline.rung_accept";
      "pipeline.verify"; "fault.pivot_exhaustion"; "sim.run";
      "solver.solve" ];
  let snap = Metrics.snapshot (Obs.metrics obs) in
  let stable = Metrics.stable_subset snap in
  match
    Option.bind (Json.member "counters" stable)
      (Json.member "sim.cycles.dependent")
  with
  | Some _ -> ()
  | None ->
    Alcotest.fail "verification simulator's stable counters not in snapshot"

(* Every pipeline call says where its verification session came from,
   as a volatile [pipeline.session] event: a freshly collected profile
   hands its recording to the first call, and a second call on the same
   profile records its own. *)
let test_pipeline_session_source () =
  let cfg, _ = Lazy.force compiled in
  let p = Dvs_profile.Profile.collect tiny_config cfg ~memory:(memory ()) in
  let sessions f =
    let obs = Obs.create () in
    ignore (f (Pipeline.Config.with_obs obs Pipeline.Config.default));
    List.filter
      (fun e -> e.Trace.name = "pipeline.session")
      (Trace.entries (Obs.trace obs))
  in
  let check what expected = function
    | [ e ] ->
      Alcotest.(check bool)
        (what ^ ": volatile") true
        (e.Trace.stability = Trace.Volatile);
      Alcotest.(check bool)
        (what ^ ": source " ^ expected) true
        (List.assoc_opt "source" e.Trace.attrs
        = Some (Trace.String expected))
    | es ->
      Alcotest.failf "%s: %d pipeline.session events, expected one" what
        (List.length es)
  in
  let sweep config =
    Pipeline.optimize_sweep ~config ~profile:p tiny_config cfg
      ~memory:(memory ()) ~deadlines:[| mid_deadline () |]
  in
  let multi config =
    Pipeline.optimize_multi ~config
      ~regulator:tiny_config.Dvs_machine.Config.regulator ~memory:(memory ())
      [ { Formulation.profile = p; weight = 1.0; deadline = mid_deadline () } ]
  in
  check "fresh profile, sweep" "profile" (sessions sweep);
  check "same profile again, optimize_multi" "recorded" (sessions multi)

let suite =
  [ Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "disabled path does not allocate" `Quick
      test_disabled_no_alloc;
    Alcotest.test_case "stable sets match at jobs=1 and jobs=4" `Quick
      test_stable_sets_match_across_jobs;
    Alcotest.test_case "trace worker node counts sum to total" `Quick
      test_trace_worker_nodes_sum;
    Alcotest.test_case "lp_cache counters surface" `Quick
      test_cache_counters_surface;
    Alcotest.test_case "only basis-free solves consult the LP cache" `Quick
      test_cache_basis_free_only;
    Alcotest.test_case "metrics snapshot round-trips" `Quick
      test_metrics_snapshot_roundtrip;
    Alcotest.test_case "bench summary round-trips" `Quick
      test_bench_summary_roundtrip;
    Alcotest.test_case "pipeline ladder events" `Quick
      test_pipeline_ladder_events;
    Alcotest.test_case "pipeline session source" `Quick
      test_pipeline_session_source ]
