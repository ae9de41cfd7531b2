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

(* --- Json.of_string: fuzzing, the replaced parser as oracle ----------- *)

(* Real store entries of the tiny program, a [sim] and a [sweep], as the
   fuzz corpus: what a damaged store file or frame looks like. *)
let store_entries =
  lazy
    (let root =
       Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "dvs_obs_json_%d" (Unix.getpid ()))
     in
     let store = Dvs_store.Store.open_ ~root () in
     let cfg, _ = Lazy.force compiled in
     let p =
       Dvs_store.Exec.profile ~store ~source:"tiny" tiny_config cfg
         ~memory:(memory ())
     in
     ignore
       (Dvs_store.Exec.optimize_sweep ~store ~verify_config:tiny_config
          ~profile:p tiny_config cfg ~memory:(memory ())
          ~deadlines:(Dvs_workloads.Deadlines.sweep_of_profile p));
     let files = List.sort compare (Array.to_list (Sys.readdir root)) in
     let texts =
       List.map
         (fun f ->
           let path = Filename.concat root f in
           let text = In_channel.with_open_bin path In_channel.input_all in
           Sys.remove path;
           text)
         files
     in
     Unix.rmdir root;
     Array.of_list texts)

(* Bytes that JSON syntax turns on, for targeted damage. *)
let syntax_chars = "\"\\u{}[]:,-+.eE019afAFnlt _\000\127\255"

(* Lexemes for a token soup: escapes good and bad (surrogates, a '_'
   inside [\u], non-hex digits), numbers at and past the int range, and
   broken literals. *)
let tokens =
  [ "\""; "\\"; "\\u"; "\\u00e9"; "\\uD83D"; "\\ude00"; "\\u0_12";
    "\\uZZZZ"; "\\u 123"; "\\n"; "\\/"; "\\x"; "0"; "7"; "-"; "+"; "."; "e";
    "E"; "1e5"; "-0"; "007"; "4611686018427387903"; "4611686018427387904";
    "-4611686018427387904"; "-4611686018427387905"; "99999999999999999999";
    "0x1p3"; "null"; "nul"; "true"; "false"; "["; "]"; "{"; "}"; ":"; ",";
    " "; "\n"; "a"; "_"; "\000"; "\255"; "\"k\":"; "[1,2]"; "{\"a\":1}" ]

let gen_damaged_entry =
  QCheck.Gen.(
    let* e = map (fun i -> (Lazy.force store_entries).(i)) (int_bound 1) in
    let n = String.length e in
    let edit =
      pair (int_bound (n - 1))
        (oneof [ char; map (String.get syntax_chars)
                         (int_bound (String.length syntax_chars - 1)) ])
    in
    oneof
      [ map (fun k -> String.sub e 0 k) (int_bound n);
        map
          (fun edits ->
            let b = Bytes.of_string e in
            List.iter (fun (i, c) -> Bytes.set b i c) edits;
            Bytes.to_string b)
          (list_size (1 -- 4) edit) ])

(* Mostly well-formed text whose leaves are the edge cases: numbers at
   and past the int range or in unusual float spellings, and strings
   full of escapes, surrogate pairs (a broken one too) and raw bytes. *)
let gen_grammar_soup =
  let numbers =
    [ "0"; "-0"; "007"; "12"; "-4611686018427387904"; "4611686018427387903";
      "4611686018427387904"; "99999999999999999999"; "1.5"; "1e5"; "1E+2";
      "2e-3"; "1.e5"; "-.5"; "0.1e-7" ]
  in
  let pieces =
    [ "a"; " "; "\\u00e9"; "\\uD83D\\uDE00"; "\\ud800\\u0041"; "\\uDBFF";
      "\\u0000"; "\\n"; "\\\""; "\\\\"; "\\/"; "\\b"; "\\f"; "\\t"; "\\r";
      "\001"; "\255"; "\\u0_12" ]
  in
  QCheck.Gen.(
    let str =
      map (fun ps -> "\"" ^ String.concat "" ps ^ "\"")
        (list_size (0 -- 4) (oneofl pieces))
    in
    let ws = oneofl [ ""; " "; "\n\t " ] in
    let spaced g = map (fun (a, v, b) -> a ^ v ^ b) (triple ws g ws) in
    sized
    @@ fix (fun self n ->
           let leaf =
             spaced (oneof [ oneofl numbers; str; oneofl [ "null"; "true" ] ])
           in
           if n <= 0 then leaf
           else
             frequency
               [ (2, leaf);
                 (1, map (fun vs -> "[" ^ String.concat "," vs ^ "]")
                       (list_size (0 -- 4) (self (n / 3))));
                 (1, map
                       (fun kvs ->
                         "{"
                         ^ String.concat ","
                             (List.map (fun (k, v) -> k ^ ":" ^ v) kvs)
                         ^ "}")
                       (list_size (0 -- 4) (pair (spaced str) (self (n / 3)))))
               ]))

let gen_hostile =
  QCheck.Gen.(
    frequency
      [ (3, gen_damaged_entry);
        (1, string_size ~gen:char (0 -- 64));
        (2, map (String.concat "") (list_size (0 -- 24) (oneofl tokens)));
        (2, gen_grammar_soup) ])

let arb_hostile =
  QCheck.make ~print:(fun s -> Printf.sprintf "%S" s) gen_hostile

let qcheck_of_string_total =
  QCheck.Test.make ~name:"of_string: damaged entries, random bytes: no raise"
    ~count:600 arb_hostile (fun s ->
      match Json.of_string s with Ok _ | Error _ -> true)

(* The one input class the oracle reads differently: a [\u] not followed
   by four hex digits, on which it raised or, given a '_', accepted
   ([int_of_string "0x0_12"]). *)
let non_hex_u_escape s =
  let n = String.length s in
  let is_hex c =
    match c with '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false
  in
  let rec bad i =
    i + 1 < n
    && ((s.[i] = '\\' && s.[i + 1] = 'u'
        && (i + 6 > n || not (String.for_all is_hex (String.sub s (i + 2) 4))))
       || bad (i + 1))
  in
  bad 0

let qcheck_of_string_oracle =
  QCheck.Test.make ~name:"of_string = the replaced parser wherever it accepts"
    ~count:600 arb_hostile (fun s ->
      match Json_oracle.of_string s with
      | Ok t -> (
        match Json.of_string s with
        | Ok t' -> Json.equal t t'
        | Error _ -> non_hex_u_escape s)
      | Error _ | (exception _) -> Result.is_error (Json.of_string s))

let gen_tree =
  QCheck.Gen.(
    let str = string_size ~gen:char (0 -- 10) in
    let float =
      oneof
        [ map Int64.float_of_bits int64;
          oneofl
            [ 0.0; -0.0; 0.1; 1e16; 2e16; -9.9e16; 1e17; 1e300; 5e-324;
              max_float; min_float ] ]
      |> map (fun f -> if Float.is_finite f then f else 0.5)
    in
    let int = oneof [ int; oneofl [ 0; -1; max_int; min_int ] ] in
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [ return Json.Null; map (fun b -> Json.Bool b) bool;
                 map (fun i -> Json.Int i) int;
                 map (fun f -> Json.Float f) float;
                 map (fun s -> Json.String s) str ]
           in
           if n <= 0 then leaf
           else
             frequency
               [ (3, leaf);
                 (1, map (fun l -> Json.List l)
                       (list_size (0 -- 5) (self (n / 3))));
                 (1, map (fun l -> Json.Obj l)
                       (list_size (0 -- 5) (pair str (self (n / 3))))) ]))

let qcheck_tree_roundtrip =
  QCheck.Test.make ~name:"generated trees round-trip through the text"
    ~count:500
    (QCheck.make ~print:Json.to_string gen_tree)
    (fun t ->
      match Json.of_string (Json.to_string t) with
      | Ok t' -> Json.equal t t'
      | Error _ -> false)

(* Allocation of a parse, per element: a list cell and the value for an
   int that fits; a list cell, the value and one [String.sub] for a
   string without escapes. *)
let test_of_string_alloc () =
  let n = 10_000 in
  let budget what items limit =
    let text = Json.to_string (Json.List items) in
    ignore (Json.of_string text);
    let w0 = Gc.minor_words () in
    let r = Json.of_string text in
    let per = (Gc.minor_words () -. w0) /. float_of_int n in
    (match r with
    | Ok t when Json.equal t (Json.List items) -> ()
    | _ -> Alcotest.failf "%s: does not parse back" what);
    if per > limit then
      Alcotest.failf "%s: %.1f words per element (budget %.0f)" what per limit
  in
  budget "10,000 ints"
    (List.init n (fun i -> Json.Int ((i * 7919) - 40_000_000)))
    10.0;
  budget "10,000 hex-float strings"
    (List.init n (fun i ->
         Json.String (Printf.sprintf "%h" (1.1 *. float_of_int (i - 17)))))
    16.0

let test_of_string_rejects () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S parsed" s
      | exception e ->
        Alcotest.failf "%S raised %s" s (Printexc.to_string e))
    [ "\"\\uZZZZ\""; "\"\\u 123\""; "\"\\u0_12\""; "\"\\u12\""; "[1,]";
      "{\"a\"}"; "01a"; "-"; "1e"; "nul"; "" ]

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
      test_pipeline_session_source;
    Alcotest.test_case "of_string rejects bad escapes and numbers" `Quick
      test_of_string_rejects;
    Alcotest.test_case "of_string allocation budget" `Quick
      test_of_string_alloc;
    QCheck_alcotest.to_alcotest qcheck_of_string_total;
    QCheck_alcotest.to_alcotest qcheck_of_string_oracle;
    QCheck_alcotest.to_alcotest qcheck_tree_roundtrip ]
