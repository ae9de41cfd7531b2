open Dvs_core
open Dvs_machine
open Dvs_ir

(* A program with a memory-bound streaming phase and a compute-bound
   phase — the shape compile-time DVS exists for.  Tiny caches make the
   stream miss; DRAM at 1us so memory time dominates the first phase. *)
let test_src =
  "int a[2048]; int s; int i; int j;\n\
   s = 0;\n\
   for (i = 0; i < 2048; i = i + 1) { s = s + a[i]; }\n\
   for (i = 0; i < 200; i = i + 1) {\n\
   \  for (j = 0; j < 20; j = j + 1) { s = s + i * j; }\n\
   }"

let tiny_config =
  Config.default
    ~l1d:{ Config.size_bytes = 128; assoc = 2; block_bytes = 16;
           latency_cycles = 1 }
    ~l2:{ Config.size_bytes = 512; assoc = 2; block_bytes = 16;
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

(* ------------------------------------------------------------------ *)
(* Profile invariants *)

let test_profile_counts_consistent () =
  let p = Lazy.force profile_cached in
  let cfg = p.Dvs_profile.Profile.cfg in
  (* Entries through edges + virtual entry = executions. *)
  let incoming = Array.make (Cfg.num_blocks cfg) 0 in
  Array.iteri
    (fun idx c ->
      let e = (Cfg.edges cfg).(idx) in
      incoming.(e.Cfg.dst) <- incoming.(e.Cfg.dst) + c)
    p.Dvs_profile.Profile.edge_count;
  incoming.(Cfg.entry cfg) <-
    incoming.(Cfg.entry cfg) + p.Dvs_profile.Profile.entry_count;
  Array.iteri
    (fun j c ->
      if c <> p.Dvs_profile.Profile.exec_count.(j) then
        Alcotest.failf "block %d: %d entries vs %d executions" j incoming.(j)
          p.Dvs_profile.Profile.exec_count.(j))
    incoming

let test_profile_path_counts_consistent () =
  let p = Lazy.force profile_cached in
  let cfg = p.Dvs_profile.Profile.cfg in
  (* For each block i, sum of D_hij over h and j = executions of i that
     exited through some edge (every execution except the final one if i
     is the halting block). *)
  let outgoing = Array.make (Cfg.num_blocks cfg) 0 in
  List.iter
    (fun ((path : Dvs_profile.Profile.path), c) ->
      outgoing.(path.Dvs_profile.Profile.node) <-
        outgoing.(path.Dvs_profile.Profile.node) + c)
    p.Dvs_profile.Profile.paths;
  Array.iteri
    (fun j c ->
      let execs = p.Dvs_profile.Profile.exec_count.(j) in
      if not (c = execs || c = execs - 1) then
        Alcotest.failf "block %d: %d path exits vs %d executions" j c execs)
    outgoing

let test_profile_block_times_sum_to_total () =
  let p = Lazy.force profile_cached in
  Array.iteri
    (fun m (run : Cpu.run_stats) ->
      let total = Array.fold_left ( +. ) 0.0 p.Dvs_profile.Profile.total_time.(m) in
      if Float.abs (total -. run.Cpu.time) > 1e-9 *. run.Cpu.time then
        Alcotest.failf "mode %d: blocks sum to %.9g, run took %.9g" m total
          run.Cpu.time)
    p.Dvs_profile.Profile.runs

let test_profile_modes_ordered () =
  let p = Lazy.force profile_cached in
  let t m = Dvs_profile.Profile.pinned_time p ~mode:m in
  Alcotest.(check bool) "slower modes take longer" true
    (t 0 > t 1 && t 1 > t 2);
  let e m = Dvs_profile.Profile.pinned_energy p ~mode:m in
  Alcotest.(check bool) "slower modes burn less" true (e 0 < e 1 && e 1 < e 2)

(* ------------------------------------------------------------------ *)
(* Pipeline *)

let mid_deadline () =
  let p = Lazy.force profile_cached in
  let t_fast = Dvs_profile.Profile.pinned_time p ~mode:2 in
  let t_slow = Dvs_profile.Profile.pinned_time p ~mode:0 in
  t_fast +. (0.5 *. (t_slow -. t_fast))

let run_pipeline ?(filter = true) deadline =
  let cfg, _ = Lazy.force compiled in
  let p = Lazy.force profile_cached in
  let config = Pipeline.Config.make ~filter () in
  Pipeline.optimize_multi ~config
    ~regulator:tiny_config.Config.regulator ~memory:(memory ())
    [ { Formulation.profile = p; weight = 1.0; deadline } ]
  |> fun r ->
  ignore cfg;
  r

let test_pipeline_optimal_and_verified () =
  let r = run_pipeline (mid_deadline ()) in
  Alcotest.(check bool) "optimal" true
    (r.Pipeline.milp.Dvs_milp.Solver.outcome = Dvs_milp.Solver.Optimal);
  match r.Pipeline.verification with
  | None -> Alcotest.fail "no verification report"
  | Some v ->
    Alcotest.(check bool) "meets deadline" true v.Verify.meets_deadline;
    if v.Verify.energy_error > 0.1 then
      Alcotest.failf "measured energy off by %.1f%% from prediction"
        (100.0 *. v.Verify.energy_error)

let test_pipeline_beats_single_mode () =
  let p = Lazy.force profile_cached in
  let deadline = mid_deadline () in
  let r = run_pipeline deadline in
  match (Baselines.best_single_mode p ~deadline, r.Pipeline.predicted_energy)
  with
  | Some (_, base), Some predicted ->
    Alcotest.(check bool) "MILP <= best single mode" true
      (predicted <= base *. 1.0001)
  | _ -> Alcotest.fail "missing baseline or solution"

let test_tight_deadline_all_fast () =
  let p = Lazy.force profile_cached in
  let t_fast = Dvs_profile.Profile.pinned_time p ~mode:2 in
  let r = run_pipeline (t_fast *. 1.0005) in
  match r.Pipeline.schedule with
  | None -> Alcotest.fail "no schedule"
  | Some s ->
    Alcotest.(check (list int)) "only fastest mode" [ 2 ]
      (Schedule.distinct_modes s)

let test_lax_deadline_mostly_slow () =
  let p = Lazy.force profile_cached in
  let t_slow = Dvs_profile.Profile.pinned_time p ~mode:0 in
  let r = run_pipeline (t_slow *. 1.01) in
  match (r.Pipeline.schedule, r.Pipeline.predicted_energy) with
  | Some s, Some e ->
    Alcotest.(check bool) "slow mode present" true
      (List.mem 0 (Schedule.distinct_modes s));
    let e_slow = Dvs_profile.Profile.pinned_energy p ~mode:0 in
    Alcotest.(check bool) "close to all-slow energy" true
      (e <= e_slow *. 1.02)
  | _ -> Alcotest.fail "no schedule"

let test_energy_monotone_in_deadline () =
  let p = Lazy.force profile_cached in
  let t_fast = Dvs_profile.Profile.pinned_time p ~mode:2 in
  let t_slow = Dvs_profile.Profile.pinned_time p ~mode:0 in
  let energy_at frac =
    let d = t_fast +. (frac *. (t_slow -. t_fast)) in
    Option.get (run_pipeline d).Pipeline.predicted_energy
  in
  let e1 = energy_at 0.1 and e2 = energy_at 0.5 and e3 = energy_at 0.95 in
  Alcotest.(check bool) "monotone" true (e1 >= e2 -. 1e-12 && e2 >= e3 -. 1e-12)

let test_filtering_preserves_energy () =
  let deadline = mid_deadline () in
  let full = run_pipeline ~filter:false deadline in
  let filtered = run_pipeline ~filter:true deadline in
  match (full.Pipeline.predicted_energy, filtered.Pipeline.predicted_energy)
  with
  | Some ef, Some eflt ->
    (* Filtering restricts the solution space: never better, and per the
       paper essentially unchanged. *)
    Alcotest.(check bool) "filtered >= full" true (eflt >= ef *. 0.9999);
    if eflt > ef *. 1.02 then
      Alcotest.failf "filtering cost %.2f%% energy"
        (100.0 *. ((eflt /. ef) -. 1.0));
    Alcotest.(check bool) "fewer independent edges" true
      (filtered.Pipeline.independent_edges < full.Pipeline.independent_edges)
  | _ -> Alcotest.fail "missing solutions"

let test_filter_repr_wellformed () =
  let p = Lazy.force profile_cached in
  let repr = Filter.representatives [ p ] in
  let n = Array.length repr in
  Array.iteri
    (fun i r ->
      Alcotest.(check bool) "in range" true (r >= 0 && r < n);
      Alcotest.(check int) "representative is its own repr" r repr.(r);
      ignore i)
    repr

let test_hsu_kremer_meets_deadline_and_loses_to_milp () =
  let cfg, _ = Lazy.force compiled in
  let p = Lazy.force profile_cached in
  let deadline = mid_deadline () in
  match Baselines.hsu_kremer tiny_config cfg ~memory:(memory ()) ~profile:p
          ~deadline
  with
  | None -> Alcotest.fail "heuristic found nothing"
  | Some s ->
    let r =
      Cpu.run
        ~rc:
          (Cpu.Run_config.make ~initial_mode:s.Schedule.entry_mode
             ~edge_modes:(Schedule.edge_modes s cfg) ())
        tiny_config cfg ~memory:(memory ())
    in
    Alcotest.(check bool) "meets deadline" true (r.Cpu.time <= deadline);
    let milp = run_pipeline deadline in
    (match milp.Pipeline.verification with
    | Some v ->
      Alcotest.(check bool) "MILP no worse (2% slack)" true
        (v.Verify.stats.Cpu.energy <= r.Cpu.energy *. 1.02)
    | None -> Alcotest.fail "no MILP verification")

let test_infeasible_deadline () =
  let p = Lazy.force profile_cached in
  let t_fast = Dvs_profile.Profile.pinned_time p ~mode:2 in
  let r = run_pipeline (t_fast *. 0.5) in
  Alcotest.(check bool) "infeasible" true
    (r.Pipeline.milp.Dvs_milp.Solver.outcome = Dvs_milp.Solver.Infeasible)

(* Multi-category: two inputs with different weights; deadlines must hold
   for both. *)
let test_multi_category () =
  let cfg, layout = Lazy.force compiled in
  let mem2 =
    Array.init layout.Dvs_lang.Lower.memory_words (fun i -> (i * 3) mod 11)
  in
  let p1 = Lazy.force profile_cached in
  let p2 = Dvs_profile.Profile.collect tiny_config cfg ~memory:mem2 in
  let d = mid_deadline () in
  let r =
    Pipeline.optimize_multi ~regulator:tiny_config.Config.regulator
      ~memory:(memory ())
      [ { Formulation.profile = p1; weight = 0.6; deadline = d };
        { Formulation.profile = p2; weight = 0.4; deadline = d } ]
  in
  Alcotest.(check bool) "optimal" true
    (r.Pipeline.milp.Dvs_milp.Solver.outcome = Dvs_milp.Solver.Optimal);
  (* The shared schedule must meet the deadline on BOTH inputs. *)
  match r.Pipeline.schedule with
  | None -> Alcotest.fail "no schedule"
  | Some s ->
    List.iter
      (fun mem ->
        let run =
          Cpu.run
            ~rc:
              (Cpu.Run_config.make ~initial_mode:s.Schedule.entry_mode
                 ~edge_modes:(Schedule.edge_modes s cfg) ())
            tiny_config cfg ~memory:mem
        in
        Alcotest.(check bool) "deadline on each input" true
          (run.Cpu.time <= d *. 1.005))
      [ memory (); mem2 ]

(* The deadline-sweep front end must agree point-for-point with the
   classic single-deadline pipeline: same predicted energy, same
   verified schedules, with warm lifts flowing tightest-to-loosest. *)
let test_optimize_sweep_matches_pointwise () =
  let cfg, _ = Lazy.force compiled in
  let p = Lazy.force profile_cached in
  let t_fast = Dvs_profile.Profile.pinned_time p ~mode:2 in
  let t_slow = Dvs_profile.Profile.pinned_time p ~mode:0 in
  let deadlines =
    Array.init 4 (fun i ->
        let frac = 0.15 +. (0.25 *. float_of_int i) in
        t_fast +. (frac *. (t_slow -. t_fast)))
  in
  let sw =
    Pipeline.optimize_sweep tiny_config cfg ~memory:(memory ()) ~deadlines
  in
  Alcotest.(check int) "one result per deadline" (Array.length deadlines)
    (Array.length sw.Pipeline.results);
  Alcotest.(check bool) "later points warm-started" true
    (sw.Pipeline.sweep.Dvs_milp.Sweep.instances_warm_started
     >= Array.length deadlines - 1);
  Array.iteri
    (fun i r ->
      let cold = run_pipeline deadlines.(i) in
      (match (r.Pipeline.predicted_energy, cold.Pipeline.predicted_energy) with
      | Some es, Some ec ->
        if Float.abs (es -. ec) > 1e-6 *. Float.max 1.0 (Float.abs ec) then
          Alcotest.failf "point %d: sweep %.12g vs cold %.12g" i es ec
      | _ -> Alcotest.failf "point %d: missing energy" i);
      match r.Pipeline.verification with
      | None -> Alcotest.failf "point %d: unverified" i
      | Some v ->
        Alcotest.(check bool) "meets deadline" true v.Verify.meets_deadline)
    sw.Pipeline.results

(* Every solution the sweep returns lies within its model's bounds,
   exactly: incumbents are clamped, so no value carries LP fuzz past a
   bound (which would also move its objective off the same schedule's
   cold one).  mpg123 filtered and ghostscript unfiltered, on the
   reproduce grid and machine. *)
let test_optimize_sweep_within_bounds () =
  let machine =
    Dvs_workloads.Workload.eval_config
      ~regulator:(Dvs_power.Switch_cost.regulator ~capacitance:0.4e-6 ())
      ()
  in
  List.iter
    (fun (name, filter) ->
      let w = Dvs_workloads.Workload.find name in
      let cfg, _, memory =
        Dvs_workloads.Workload.load w
          ~input:(Dvs_workloads.Workload.default_input w)
      in
      let p = Dvs_profile.Profile.collect machine cfg ~memory in
      let config =
        Pipeline.Config.make ~filter
          ~solver:(Dvs_milp.Solver.Config.make ~jobs:1 ())
          ()
      in
      let sw =
        Pipeline.optimize_sweep ~config ~profile:p machine cfg ~memory
          ~deadlines:(Dvs_workloads.Deadlines.sweep_of_profile p)
      in
      Array.iteri
        (fun i (r : Pipeline.result) ->
          let model = r.Pipeline.formulation.Formulation.model in
          match r.Pipeline.milp.Dvs_milp.Solver.solution with
          | None -> Alcotest.failf "%s point %d: no solution" name i
          | Some s ->
            Array.iteri
              (fun v x ->
                let lo, hi = Dvs_lp.Model.bounds model v in
                if x < lo || x > hi then
                  Alcotest.failf "%s point %d: x%d = %.17g outside [%g, %g]"
                    name i v x lo hi)
              s.Dvs_lp.Simplex.values)
        sw.Pipeline.results)
    [ ("mpg123", true); ("ghostscript", false) ]

(* Unfiltered sweeps do not depend on the solver's job count (the CI
   diff of reproduce tables at jobs 1 and 4 covers filtered models
   only): mpeg with the edge filter off, on the reproduce grid and
   machine, at solver jobs 1 and 2.  Schedules must be identical at all
   seven points and predicted energies equal to 1e-9 relative. *)
let test_unfiltered_sweep_jobs_agree () =
  let machine =
    Dvs_workloads.Workload.eval_config
      ~regulator:(Dvs_power.Switch_cost.regulator ~capacitance:0.4e-6 ())
      ()
  in
  let w = Dvs_workloads.Workload.find "mpeg" in
  let cfg, _, memory =
    Dvs_workloads.Workload.load w
      ~input:(Dvs_workloads.Workload.default_input w)
  in
  let p = Dvs_profile.Profile.collect machine cfg ~memory in
  let sweep jobs =
    let config =
      Pipeline.Config.make ~filter:false
        ~solver:(Dvs_milp.Solver.Config.make ~jobs ())
        ()
    in
    (Pipeline.optimize_sweep ~config ~profile:p machine cfg ~memory
       ~deadlines:(Dvs_workloads.Deadlines.sweep_of_profile p))
      .Pipeline.results
  in
  let one = sweep 1 and two = sweep 2 in
  Alcotest.(check int) "points" 7 (Array.length one);
  Alcotest.(check int) "points at jobs 2" 7 (Array.length two);
  Array.iteri
    (fun i (a : Pipeline.result) ->
      let b = two.(i) in
      (match (a.Pipeline.schedule, b.Pipeline.schedule) with
      | Some sa, Some sb ->
        if not (Schedule.equal sa sb) then
          Alcotest.failf "point %d: schedules differ between jobs 1 and 2" i
      | None, None -> ()
      | _ -> Alcotest.failf "point %d: a schedule at one job count only" i);
      match (a.Pipeline.predicted_energy, b.Pipeline.predicted_energy) with
      | Some ea, Some eb ->
        if Float.abs (ea -. eb) > 1e-9 *. Float.abs ea then
          Alcotest.failf "point %d: predicted %.17g (jobs 1) vs %.17g (jobs 2)"
            i ea eb
      | None, None -> ()
      | _ -> Alcotest.failf "point %d: a prediction at one job count only" i)
    one

let test_optimize_sweep_infeasible_point () =
  let cfg, _ = Lazy.force compiled in
  let p = Lazy.force profile_cached in
  let t_fast = Dvs_profile.Profile.pinned_time p ~mode:2 in
  let t_slow = Dvs_profile.Profile.pinned_time p ~mode:0 in
  let deadlines = [| t_fast *. 0.5; t_slow *. 1.01 |] in
  let sw =
    Pipeline.optimize_sweep tiny_config cfg ~memory:(memory ()) ~deadlines
  in
  let r0 = sw.Pipeline.results.(0) in
  Alcotest.(check bool) "tight point infeasible, no schedule" true
    (r0.Pipeline.schedule = None
    && r0.Pipeline.milp.Dvs_milp.Solver.outcome = Dvs_milp.Solver.Infeasible);
  match sw.Pipeline.results.(1).Pipeline.schedule with
  | None -> Alcotest.fail "loose point should still solve"
  | Some _ -> ()

(* ------------------------------------------------------------------ *)
(* One recording per (program, input): the profile's recording is
   handed over to the first call that verifies on it *)

module Profile = Dvs_profile.Profile

let has_recording p = Option.is_some (Profile.recording p)

(* [f config], with a fresh traced registry threaded through [config];
   also returns the [source] of every [pipeline.session] event. *)
let with_sources ?(config = Pipeline.Config.default) f =
  let obs = Dvs_obs.create () in
  let r = f (Pipeline.Config.with_obs obs config) in
  let sources =
    Dvs_obs.Trace.entries (Dvs_obs.trace obs)
    |> List.filter_map (fun (e : Dvs_obs.Trace.entry) ->
           match
             (e.Dvs_obs.Trace.name, List.assoc_opt "source" e.Dvs_obs.Trace.attrs)
           with
           | "pipeline.session", Some (Dvs_obs.Trace.String src) -> Some src
           | _ -> None)
  in
  (r, sources)

let check_source what expected sources =
  match sources with
  | src :: _ when src = expected -> ()
  | _ ->
    Alcotest.failf "%s: session source [%s], expected %s first" what
      (String.concat "; " sources) expected

let check_same_result what (a : Pipeline.result) (b : Pipeline.result) =
  if a.Pipeline.schedule <> b.Pipeline.schedule then
    Alcotest.failf "%s: schedules differ" what;
  if a.Pipeline.rung <> b.Pipeline.rung then
    Alcotest.failf "%s: rungs differ" what;
  match (a.Pipeline.verification, b.Pipeline.verification) with
  | Some va, Some vb ->
    Test_summary.check_stats what va.Verify.stats vb.Verify.stats
  | None, None -> ()
  | _ -> Alcotest.failf "%s: only one side was verified" what

let check_same_sweep what (a : Pipeline.sweep_result)
    (b : Pipeline.sweep_result) =
  Alcotest.(check int) (what ^ ": points")
    (Array.length a.Pipeline.results)
    (Array.length b.Pipeline.results);
  Array.iteri
    (fun i r ->
      check_same_result
        (Printf.sprintf "%s: point %d" what i)
        r b.Pipeline.results.(i))
    a.Pipeline.results

let test_handover_six_programs () =
  let machine = Dvs_workloads.Workload.eval_config () in
  List.iter
    (fun name ->
      let w = Dvs_workloads.Workload.find name in
      let cfg, _, memory =
        Dvs_workloads.Workload.load w
          ~input:(Dvs_workloads.Workload.default_input w)
      in
      let p = Profile.collect machine cfg ~memory in
      let deadlines = Dvs_workloads.Deadlines.sweep_of_profile p in
      let sweep ?session config =
        Pipeline.optimize_sweep ~config ~profile:p ?session machine cfg
          ~memory ~deadlines
      in
      let handed, sources = with_sources (fun config -> sweep config) in
      check_source name "profile" sources;
      if has_recording p then Alcotest.failf "%s: slot not emptied" name;
      (* The oracle: a session recorded for the purpose. *)
      let oracle, _ =
        with_sources
          (sweep ~session:(Verify.Session.create machine cfg ~memory))
      in
      check_same_sweep name handed oracle)
    [ "adpcm"; "epic"; "gsm"; "mpeg"; "ghostscript"; "mpg123" ]

let tiny_deadlines p =
  let t_fast = Profile.pinned_time p ~mode:2 in
  let t_slow = Profile.pinned_time p ~mode:0 in
  Array.init 4 (fun i ->
      t_fast +. ((0.15 +. (0.25 *. float_of_int i)) *. (t_slow -. t_fast)))

let fresh_tiny_profile () =
  let cfg, _ = Lazy.force compiled in
  (cfg, Profile.collect tiny_config cfg ~memory:(memory ()))

let test_handover_second_call_records () =
  let cfg, p = fresh_tiny_profile () in
  let deadlines = tiny_deadlines p in
  let sweep config =
    Pipeline.optimize_sweep ~config ~profile:p tiny_config cfg
      ~memory:(memory ()) ~deadlines
  in
  let first, s1 = with_sources sweep in
  check_source "first call" "profile" s1;
  if has_recording p then Alcotest.fail "slot not emptied by the first call";
  let second, s2 = with_sources sweep in
  check_source "second call" "recorded" s2;
  check_same_sweep "second call" first second

(* Whenever the recording does not fit, the call verifies exactly as it
   did before recordings were handed over — and still empties the
   slot. *)
let test_handover_no_fit () =
  let memory2 = Array.map (fun x -> (x * 5) + 3) (memory ()) in
  let other_regulator =
    { tiny_config with
      Config.regulator = Dvs_power.Switch_cost.regulator ~capacitance:1e-6 ()
    }
  in
  let cold = Pipeline.Config.make ~cold_verify:true () in
  List.iter
    (fun (what, expected, config, vconfig, mem, caller) ->
      let cfg, p = fresh_tiny_profile () in
      let deadlines = tiny_deadlines p in
      let sweep ?session config =
        Pipeline.optimize_sweep ~config ~verify_config:vconfig ~profile:p
          ?session tiny_config cfg ~memory:mem ~deadlines
      in
      let r, sources =
        with_sources ~config (fun config ->
            sweep
              ?session:
                (if caller then
                   Some (Verify.Session.create vconfig cfg ~memory:mem)
                 else None)
              config)
      in
      check_source what expected sources;
      if has_recording p then Alcotest.failf "%s: slot not emptied" what;
      let oracle, _ =
        with_sources ~config
          (sweep
             ~session:
               (Verify.Session.create
                  ~cold:config.Pipeline.Config.cold_verify vconfig cfg
                  ~memory:mem))
      in
      check_same_sweep what r oracle)
    [ ("other regulator", "recorded", Pipeline.Config.default,
       other_regulator, memory (), false);
      ("other input", "recorded", Pipeline.Config.default, tiny_config,
       memory2, false);
      ("caller session", "caller", Pipeline.Config.default, tiny_config,
       memory (), true);
      ("cold verify", "cold", cold, tiny_config, memory (), false) ]

(* Concurrent callers race for the slot: exactly one takes it over, the
   other records, and both verify correctly. *)
let test_handover_two_domains () =
  let cfg, p = fresh_tiny_profile () in
  let deadline = (tiny_deadlines p).(1) in
  let run ?session config =
    Pipeline.optimize_multi ~config ?session
      ~regulator:tiny_config.Config.regulator ~memory:(memory ())
      [ { Formulation.profile = p; weight = 1.0; deadline } ]
  in
  let d = Domain.spawn (fun () -> with_sources (fun c -> run c)) in
  let r1, s1 = with_sources (fun c -> run c) in
  let r2, s2 = Domain.join d in
  Alcotest.(check (list string))
    "one take-over, one recording" [ "profile"; "recorded" ]
    (List.sort compare (s1 @ s2));
  if has_recording p then Alcotest.fail "slot not emptied";
  let oracle =
    run
      ~session:(Verify.Session.create tiny_config cfg ~memory:(memory ()))
      Pipeline.Config.default
  in
  check_same_result "this domain" r1 oracle;
  check_same_result "spawned domain" r2 oracle

let suite =
  [ Alcotest.test_case "profile counts consistent" `Quick
      test_profile_counts_consistent;
    Alcotest.test_case "profile path counts consistent" `Quick
      test_profile_path_counts_consistent;
    Alcotest.test_case "profile block times sum" `Quick
      test_profile_block_times_sum_to_total;
    Alcotest.test_case "profile mode ordering" `Quick
      test_profile_modes_ordered;
    Alcotest.test_case "pipeline optimal and verified" `Quick
      test_pipeline_optimal_and_verified;
    Alcotest.test_case "pipeline beats single mode" `Quick
      test_pipeline_beats_single_mode;
    Alcotest.test_case "tight deadline: all fast" `Quick
      test_tight_deadline_all_fast;
    Alcotest.test_case "lax deadline: mostly slow" `Quick
      test_lax_deadline_mostly_slow;
    Alcotest.test_case "energy monotone in deadline" `Slow
      test_energy_monotone_in_deadline;
    Alcotest.test_case "filtering preserves energy" `Quick
      test_filtering_preserves_energy;
    Alcotest.test_case "filter repr well-formed" `Quick
      test_filter_repr_wellformed;
    Alcotest.test_case "hsu-kremer vs milp" `Slow
      test_hsu_kremer_meets_deadline_and_loses_to_milp;
    Alcotest.test_case "infeasible deadline" `Quick test_infeasible_deadline;
    Alcotest.test_case "optimize_sweep matches pointwise" `Slow
      test_optimize_sweep_matches_pointwise;
    Alcotest.test_case "optimize_sweep infeasible point" `Quick
      test_optimize_sweep_infeasible_point;
    Alcotest.test_case "optimize_sweep solutions within bounds" `Quick
      test_optimize_sweep_within_bounds;
    Alcotest.test_case "unfiltered sweep: jobs 1 = jobs 2" `Quick
      test_unfiltered_sweep_jobs_agree;
    Alcotest.test_case "multi-category optimization" `Slow
      test_multi_category ;
    Alcotest.test_case "handover: six programs = recorded oracle" `Slow
      test_handover_six_programs;
    Alcotest.test_case "handover: second call records again" `Quick
      test_handover_second_call_records;
    Alcotest.test_case "handover: no-fit cases record afresh" `Quick
      test_handover_no_fit;
    Alcotest.test_case "handover: two domains take the slot once" `Quick
      test_handover_two_domains ]

(* Randomized end-to-end robustness: generate MiniC programs with loops,
   arrays, and data-dependent branches; run the whole pipeline at a
   random feasible deadline; the verified schedule must meet the
   deadline and track the MILP's energy prediction. *)
let random_program_gen =
  QCheck.Gen.(
    let* arr = int_range 256 2048 in
    let* outer = int_range 3 12 in
    let* inner = int_range 10 60 in
    let* stride = int_range 1 13 in
    let* branch_mod = int_range 2 5 in
    let* frac = float_range 0.15 0.95 in
    return (arr, outer, inner, stride, branch_mod, frac))

let qcheck_pipeline_end_to_end =
  QCheck.Test.make ~name:"pipeline verifies on random programs" ~count:12
    (QCheck.make random_program_gen)
    (fun (arr, outer, inner, stride, branch_mod, frac) ->
      let src =
        Printf.sprintf
          "int a[%d]; int s; int i; int j;\n\
           for (i = 0; i < %d; i = i + 1) {\n\
           \  for (j = 0; j < %d; j = j + 1) {\n\
           \    s = s + a[(j * %d) %% %d];\n\
           \    if (s %% %d == 0) { s = s + j; } else { s = s - 1; }\n\
           \  }\n\
           \  a[i %% %d] = s;\n\
           }"
          arr outer inner stride arr branch_mod arr
      in
      let cfg, layout = Dvs_lang.Lower.compile_string src in
      let mem = Array.init layout.Dvs_lang.Lower.memory_words (fun i -> i mod 97) in
      let machine =
        Config.default
          ~l1d:{ Config.size_bytes = 512; assoc = 2; block_bytes = 16;
                 latency_cycles = 1 }
          ~l2:{ Config.size_bytes = 2048; assoc = 2; block_bytes = 16;
                latency_cycles = 4 }
          ~dram_latency:8e-7
          ~regulator:(Dvs_power.Switch_cost.regulator ~capacitance:0.05e-6 ())
          ()
      in
      let p = Dvs_profile.Profile.collect machine cfg ~memory:mem in
      let t_fast = Dvs_profile.Profile.pinned_time p ~mode:2 in
      let t_slow = Dvs_profile.Profile.pinned_time p ~mode:0 in
      let deadline = t_fast +. (frac *. (t_slow -. t_fast)) in
      let r =
        Pipeline.optimize_multi
          ~config:
            (Pipeline.Config.make
               ~solver:
                 (Dvs_milp.Solver.Config.make ~jobs:1 ~max_nodes:1500
                    ~time_limit:8.0 ())
               ())
          ~regulator:machine.Config.regulator ~memory:mem
          [ { Formulation.profile = p; weight = 1.0; deadline } ]
      in
      match r.Pipeline.verification with
      | None -> false
      | Some v -> v.Verify.meets_deadline && v.Verify.energy_error < 0.2)

let suite =
  suite @ [ QCheck_alcotest.to_alcotest qcheck_pipeline_end_to_end ]
