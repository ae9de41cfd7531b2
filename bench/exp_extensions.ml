(* Experiments beyond the paper's evaluation, implementing its Section 7
   discussion items:
   - edge- vs block-granularity ablation (why edges, quantified);
   - the cost of materializing mode-sets as real instructions, and what
     redundant-mode-set elimination (hoisting) recovers;
   - compiler optimization's effect on the DVS parameter mix;
   - Ball-Larus path profiles (the proposed move from edges to paths). *)

open Dvs_core
open Dvs_report
open Dvs_ir

let heading id title note =
  Printf.printf "\n=== %s: %s ===\n%s\n" id title note

(* --- Granularity ablation --------------------------------------------- *)

let ablation_granularity () =
  heading "Ablation A" "edge-based vs block-based mode assignment"
    "MILP energy (uJ) at deadline D4; block granularity = prior work \
     (Saputra et al.)";
  let t =
    Table.create
      [ ("benchmark", Table.Left); ("edge-based", Table.Right);
        ("block-based", Table.Right); ("penalty", Table.Right) ]
  in
  List.iter
    (fun name ->
      let d = (Context.deadlines name).(3) in
      let p = Context.default_profile name in
      let category =
        { Formulation.profile = p; weight = 1.0; deadline = d }
      in
      let solve repr =
        let f =
          Formulation.build ?repr
            ~regulator:Context.default_regulator [ category ]
        in
        let config =
          Context.solver_config ()
          |> Dvs_milp.Solver.Config.with_sos1
               (List.map (fun (_, vars) -> Array.to_list vars)
                  f.Formulation.kvars)
        in
        match
          (Dvs_milp.Solver.solve ~config f.Formulation.model)
            .Dvs_milp.Solver.solution
        with
        | Some s -> Some (s.Dvs_lp.Simplex.objective /. 1e6)
        | None -> None
      in
      let cfg = p.Dvs_profile.Profile.cfg in
      match (solve None, solve (Some (Filter.block_based cfg))) with
      | Some edge_e, Some block_e ->
        Table.add_row t
          [ name;
            Table.fmt_float ~digits:1 (edge_e *. 1e6);
            Table.fmt_float ~digits:1 (block_e *. 1e6);
            Printf.sprintf "%+.1f%%" (100.0 *. ((block_e /. edge_e) -. 1.0)) ]
      | _ -> Table.add_row t [ name; "-"; "-"; "-" ])
    Context.all_names;
  Table.print t

(* --- Mode-set materialization / hoisting ------------------------------- *)

let ablation_hoist () =
  heading "Ablation B" "materializing mode-sets as instructions"
    "deadline D4; 'ideal' = modes on edges (no instruction cost), 'naive' \
     = every edge split, 'hoisted' = after redundant-mode-set elimination";
  let t =
    Table.create
      [ ("benchmark", Table.Left); ("static sets", Table.Right);
        ("hoisted sets", Table.Right); ("ideal time", Table.Right);
        ("hoisted time", Table.Right); ("overhead", Table.Right);
        ("dyn transitions", Table.Right) ]
  in
  List.iter
    (fun name ->
      let d = (Context.deadlines name).(3) in
      let r = Context.optimize name ~deadline:d in
      match r.Pipeline.schedule with
      | None -> Table.add_row t [ name; "-"; "-"; "-"; "-"; "-"; "-" ]
      | Some schedule ->
        let p = Context.default_profile name in
        let cfg = p.Dvs_profile.Profile.cfg in
        let memory = Context.default_memory name in
        let config =
          Context.config_of ~regulator:Context.default_regulator
            Context.Xscale3
        in
        let naive = Instrument.apply schedule cfg in
        let hoisted = Instrument.simplify naive in
        let ideal_run =
          Dvs_machine.Cpu.run
            ~rc:
              (Dvs_machine.Cpu.Run_config.make
                 ~initial_mode:schedule.Schedule.entry_mode
                 ~edge_modes:(Schedule.edge_modes schedule cfg) ())
            config cfg ~memory
        in
        let hoisted_run =
          Dvs_machine.Cpu.run
            ~rc:
              (Dvs_machine.Cpu.Run_config.make
                 ~initial_mode:schedule.Schedule.entry_mode ())
            config hoisted ~memory
        in
        Table.add_row t
          [ name;
            string_of_int (Instrument.static_modesets naive);
            string_of_int (Instrument.static_modesets hoisted);
            Printf.sprintf "%.3fms" (ideal_run.Dvs_machine.Cpu.time *. 1e3);
            Printf.sprintf "%.3fms" (hoisted_run.Dvs_machine.Cpu.time *. 1e3);
            Printf.sprintf "%+.2f%%"
              (100.0
              *. ((hoisted_run.Dvs_machine.Cpu.time
                  /. ideal_run.Dvs_machine.Cpu.time)
                 -. 1.0));
            string_of_int hoisted_run.Dvs_machine.Cpu.mode_transitions ])
    Context.all_names;
  Table.print t

(* --- Compiler optimization vs DVS parameters ---------------------------- *)

let ablation_opt () =
  heading "Ablation C" "compiler optimization shifts the DVS parameter mix"
    "naive lowering vs constant-fold+DCE; fastest-mode run";
  let t =
    Table.create
      [ ("benchmark", Table.Left); ("static", Table.Right);
        ("static -O", Table.Right); ("dyn", Table.Right);
        ("dyn -O", Table.Right); ("t800 (ms)", Table.Right);
        ("t800 -O", Table.Right); ("Ndep/Nov", Table.Right);
        ("Ndep/Nov -O", Table.Right) ]
  in
  let config = Context.config_of Context.Xscale3 in
  List.iter
    (fun name ->
      let w = Dvs_workloads.Workload.find name in
      let cfg, layout, mem =
        Dvs_workloads.Workload.load w
          ~input:(Dvs_workloads.Workload.default_input w)
      in
      let exit_live = List.map snd layout.Dvs_lang.Lower.scalars in
      let optimized = Opt.optimize ~exit_live cfg in
      let run g = Dvs_machine.Cpu.run config g ~memory:mem in
      let r0 = run cfg and r1 = run optimized in
      let ratio (r : Dvs_machine.Cpu.run_stats) =
        float_of_int r.dependent_cycles
        /. float_of_int (Int.max 1 r.overlap_cycles)
      in
      Table.add_row t
        [ name;
          string_of_int (Opt.instruction_count cfg);
          string_of_int (Opt.instruction_count optimized);
          string_of_int r0.Dvs_machine.Cpu.dyn_instrs;
          string_of_int r1.Dvs_machine.Cpu.dyn_instrs;
          Table.fmt_float ~digits:3 (r0.Dvs_machine.Cpu.time *. 1e3);
          Table.fmt_float ~digits:3 (r1.Dvs_machine.Cpu.time *. 1e3);
          Table.fmt_float ~digits:2 (ratio r0);
          Table.fmt_float ~digits:2 (ratio r1) ])
    Context.all_names;
  Table.print t

(* --- Ball-Larus path profiles ------------------------------------------ *)

let paths () =
  heading "Ablation D" "Ball-Larus acyclic-path profiles"
    "the paper's Section 7 next step: regions = hot paths, not edges";
  let t =
    Table.create
      [ ("benchmark", Table.Left); ("static paths", Table.Right);
        ("dyn segments", Table.Right); ("distinct", Table.Right);
        ("top-1", Table.Right); ("top-3 coverage", Table.Right) ]
  in
  List.iter
    (fun name ->
      let w = Dvs_workloads.Workload.find name in
      let cfg, _, mem =
        Dvs_workloads.Workload.load w
          ~input:(Dvs_workloads.Workload.default_input w)
      in
      let bl = Dvs_profile.Ball_larus.compute cfg in
      let trace = (Interp.run ~trace:true cfg ~memory:mem).Interp.block_trace in
      let counts = Dvs_profile.Ball_larus.count_trace bl trace in
      let total = List.fold_left (fun a (_, c) -> a + c) 0 counts in
      let coverage k =
        let top =
          List.filteri (fun i _ -> i < k) counts
          |> List.fold_left (fun a (_, c) -> a + c) 0
        in
        100.0 *. float_of_int top /. float_of_int (Int.max 1 total)
      in
      Table.add_row t
        [ name;
          string_of_int (Dvs_profile.Ball_larus.num_paths bl);
          string_of_int total;
          string_of_int (List.length counts);
          Printf.sprintf "%.1f%%" (coverage 1);
          Printf.sprintf "%.1f%%" (coverage 3) ])
    Context.all_names;
  Table.print t

let all =
  [ ("ablation-granularity", ablation_granularity);
    ("ablation-hoist", ablation_hoist); ("ablation-opt", ablation_opt);
    ("paths", paths) ]

(* --- Memory-oblivious bound comparison ---------------------------------- *)

let bound_comparison () =
  heading "Ablation E" "why memory-aware modeling matters (vs Ishihara-Yasuura)"
    "the IY model sees only cycle counts; its 'optimal' frequency ignores \
     t_invariant and misses real deadlines (deadline D3)";
  let t =
    Table.create
      [ ("benchmark", Table.Left); ("IY f (MHz)", Table.Right);
        ("real time at IY f", Table.Right); ("deadline", Table.Right);
        ("missed by", Table.Right); ("paper-model f (MHz)", Table.Right) ]
  in
  List.iter
    (fun name ->
      let p = Context.default_profile name in
      let d = (Context.deadlines name).(2) in
      let params = Dvs_profile.Categorize.of_profile p ~deadline:d in
      let cycles = Dvs_analytical.Ishihara.of_params params in
      let f_iy = cycles /. d in
      let real_time = Dvs_analytical.Params.total_time params f_iy in
      let paper_f =
        match Dvs_analytical.Continuous.single_frequency params with
        | Some s -> s.Dvs_analytical.Continuous.f1
        | None -> Float.nan
      in
      Table.add_row t
        [ name;
          Table.fmt_float ~digits:0 (f_iy /. 1e6);
          Printf.sprintf "%.3fms" (real_time *. 1e3);
          Printf.sprintf "%.3fms" (d *. 1e3);
          Printf.sprintf "%+.1f%%" (100.0 *. ((real_time /. d) -. 1.0));
          Table.fmt_float ~digits:0 (paper_f /. 1e6) ])
    Context.analytical_names;
  Table.print t

let all = all @ [ ("bound-comparison", bound_comparison) ]

(* --- Profiling platform: in-order vs out-of-order ----------------------- *)

let ablation_core () =
  heading "Ablation F" "profiling platform: in-order vs 4-wide out-of-order"
    "the paper profiled on an OoO SimpleScalar; parameter mix and savings \
     bound shift with the core model (fastest mode; analytical 3-level \
     savings at D4-equivalent deadlines)";
  let t =
    Table.create
      [ ("benchmark", Table.Left); ("t800 io", Table.Right);
        ("t800 ooo", Table.Right); ("Nov/Ndep io", Table.Right);
        ("Nov/Ndep ooo", Table.Right); ("tinv io", Table.Right);
        ("tinv ooo", Table.Right); ("sav3 io", Table.Right);
        ("sav3 ooo", Table.Right) ]
  in
  let config = Context.config_of Context.Xscale3 in
  List.iter
    (fun name ->
      let w = Dvs_workloads.Workload.find name in
      let cfg, _, mem =
        Dvs_workloads.Workload.load w
          ~input:(Dvs_workloads.Workload.default_input w)
      in
      let io = Dvs_machine.Cpu.run config cfg ~memory:mem in
      let ooo = Dvs_machine.Cpu_ooo.run config cfg ~memory:mem in
      let savings (r : Dvs_machine.Cpu.run_stats) =
        (* Self-consistent analytic deadline range per platform. *)
        let params = Dvs_profile.Categorize.params r ~deadline:1.0 in
        let tbl = Dvs_power.Mode.xscale_levels 3 in
        let f_of (m : Dvs_power.Mode.t) = m.frequency in
        let t_fast =
          Dvs_analytical.Params.total_time params
            (f_of (Dvs_power.Mode.max_mode tbl))
        in
        let t_slow =
          Dvs_analytical.Params.total_time params
            (f_of (Dvs_power.Mode.min_mode tbl))
        in
        let d = t_fast +. (0.57 *. (t_slow -. t_fast)) in
        match
          Dvs_analytical.Savings.discrete
            (Dvs_analytical.Params.with_deadline params d) tbl
        with
        | Some r -> Table.fmt_float ~digits:2 r
        | None -> "-"
      in
      let ratio (r : Dvs_machine.Cpu.run_stats) =
        float_of_int r.Dvs_machine.Cpu.overlap_cycles
        /. float_of_int (Int.max 1 r.Dvs_machine.Cpu.dependent_cycles)
      in
      Table.add_row t
        [ name;
          Printf.sprintf "%.2fms" (io.Dvs_machine.Cpu.time *. 1e3);
          Printf.sprintf "%.2fms" (ooo.Dvs_machine.Cpu.time *. 1e3);
          Table.fmt_float ~digits:2 (ratio io);
          Table.fmt_float ~digits:2 (ratio ooo);
          Printf.sprintf "%.0fus" (io.Dvs_machine.Cpu.miss_busy_time *. 1e6);
          Printf.sprintf "%.0fus" (ooo.Dvs_machine.Cpu.miss_busy_time *. 1e6);
          savings io; savings ooo ])
    Context.all_names;
  Table.print t

let all = all @ [ ("ablation-core", ablation_core) ]

(* --- Runtime interval policy vs compile-time MILP ------------------------ *)

let ablation_runtime () =
  heading "Ablation G" "runtime interval DVS vs compile-time MILP"
    "Weiser-style utilization governor (deadline-unaware) against the \
     MILP schedule at deadline D4; energy in uJ, '!' = deadline missed";
  let t =
    Table.create
      [ ("benchmark", Table.Left); ("deadline", Table.Right);
        ("governor time", Table.Right); ("governor E", Table.Right);
        ("MILP time", Table.Right); ("MILP E", Table.Right);
        ("gov switches", Table.Right) ]
  in
  let config =
    Context.config_of ~regulator:Context.default_regulator Context.Xscale3
  in
  List.iter
    (fun name ->
      let d = (Context.deadlines name).(3) in
      let cfg = Context.cfg_of name in
      let mem = Context.default_memory name in
      (* Interval ~ a scheduler tick scaled to our run lengths. *)
      let governor =
        Baselines.weiser_governor ~interval:(d /. 50.0)
      in
      let gov =
        Dvs_machine.Cpu.run
          ~rc:(Dvs_machine.Cpu.Run_config.make ~initial_mode:1 ~governor ())
          config cfg ~memory:mem
      in
      let milp = Context.optimize name ~deadline:d in
      let fmt_time (time : float) =
        Printf.sprintf "%.3fms%s" (time *. 1e3)
          (if time > d *. 1.005 then "!" else "")
      in
      match milp.Pipeline.verification with
      | Some v ->
        Table.add_row t
          [ name;
            Printf.sprintf "%.3fms" (d *. 1e3);
            fmt_time gov.Dvs_machine.Cpu.time;
            Table.fmt_float ~digits:1 (gov.Dvs_machine.Cpu.energy *. 1e6);
            fmt_time v.Verify.stats.Dvs_machine.Cpu.time;
            Table.fmt_float ~digits:1
              (v.Verify.stats.Dvs_machine.Cpu.energy *. 1e6);
            string_of_int gov.Dvs_machine.Cpu.mode_transitions ]
      | None -> Table.add_row t [ name; "-"; "-"; "-"; "-"; "-"; "-" ])
    Context.all_names;
  Table.print t;
  print_endline
    "(the governor reacts to utilization, not deadlines: it can miss them \
     or leave energy on the table; the MILP provably meets them)"

let all = all @ [ ("ablation-runtime", ablation_runtime) ]

(* --- Filter threshold sweep --------------------------------------------- *)

let ablation_filter () =
  heading "Ablation H" "edge-filter threshold sweep"
    "the paper picks a 2% energy tail; how sensitive is that choice? \
     (deadline D5; cells = predicted energy in uJ / independent edges)";
  let thresholds = [ 0.0; 0.01; 0.02; 0.05; 0.10; 0.25 ] in
  let t =
    Table.create
      (("benchmark", Table.Left)
      :: List.map
           (fun th -> (Printf.sprintf "%.0f%%" (th *. 100.), Table.Right))
           thresholds)
  in
  List.iter
    (fun name ->
      let d = (Context.deadlines name).(4) in
      let p = Context.default_profile name in
      let cells =
        List.map
          (fun th ->
            let repr =
              if th = 0.0 then None
              else Some (Filter.representatives ~threshold:th [ p ])
            in
            let f =
              Formulation.build ?repr ~regulator:Context.default_regulator
                [ { Formulation.profile = p; weight = 1.0; deadline = d } ]
            in
            let independent =
              match repr with
              | Some r -> Filter.independent_count r
              | None -> Array.length f.Formulation.repr
            in
            let config =
              Context.solver_config ()
              |> Dvs_milp.Solver.Config.with_sos1
                   (List.map (fun (_, vars) -> Array.to_list vars)
                      f.Formulation.kvars)
            in
            match
              (Dvs_milp.Solver.solve ~config f.Formulation.model)
                .Dvs_milp.Solver.solution
            with
            | Some s ->
              Printf.sprintf "%.0f/%d" s.Dvs_lp.Simplex.objective independent
            | None -> "-")
          thresholds
      in
      Table.add_row t (name :: cells))
    Context.all_names;
  Table.print t;
  print_endline
    "(energy should stay flat while independent edges shrink — until the \
     threshold gets greedy and starts costing energy)"

let all = all @ [ ("ablation-filter", ablation_filter) ]
