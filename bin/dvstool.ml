(* dvstool: command-line front end for the compile-time DVS toolkit.

   Subcommands:
     list                          workloads and their inputs
     simulate  <workload>          pinned simulation at each mode
     profile   <workload>          profile + measured Table-7 parameters
     optimize  <workload>          MILP schedule for a deadline
     reproduce <workload>          pipeline across the Table-4 deadline set
     stats                         pretty-print --trace/--metrics files
     bench-diff                    gate LP work counters vs a baseline
     analyze                       analytical model on given parameters
     compile   <file.mc>           compile MiniC; dump the CFG (or DOT)

   simulate, optimize and reproduce accept --trace FILE (dvs-trace/v1
   JSONL) and --metrics FILE (dvs-metrics/v1 snapshot); stats reads
   both back. *)

open Cmdliner

(* ---------------- common args ---------------- *)

(* Levenshtein distance, for near-miss suggestions on workload names. *)
let edit_distance a b =
  let la = String.length a and lb = String.length b in
  let prev = Array.init (lb + 1) Fun.id in
  let cur = Array.make (lb + 1) 0 in
  for i = 1 to la do
    cur.(0) <- i;
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      cur.(j) <-
        Int.min (Int.min (cur.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
    done;
    Array.blit cur 0 prev 0 (lb + 1)
  done;
  prev.(lb)

let nearest_workload s =
  let lower = String.lowercase_ascii s in
  List.fold_left
    (fun best (w : Dvs_workloads.Workload.t) ->
      let d = edit_distance lower w.name in
      match best with
      | Some (_, d0) when d0 <= d -> best
      | _ -> Some (w.name, d))
    None Dvs_workloads.Workload.all

let workload_arg =
  let parse s =
    match Dvs_workloads.Workload.find s with
    | w -> Ok w
    | exception Not_found ->
      let suggestion =
        match nearest_workload s with
        | Some (name, d) when d <= Int.max 2 (String.length s / 3) ->
          Printf.sprintf " (did you mean `%s'?)" name
        | _ -> " (try `dvstool list')"
      in
      Error (`Msg (Printf.sprintf "unknown workload %s%s" s suggestion))
  in
  let print ppf (w : Dvs_workloads.Workload.t) =
    Format.pp_print_string ppf w.name
  in
  Arg.conv (parse, print)

let workload_pos =
  Arg.(
    required
    & pos 0 (some workload_arg) None
    & info [] ~docv:"WORKLOAD" ~doc:"Benchmark name (see $(b,dvstool list)).")

let input_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "i"; "input" ] ~docv:"INPUT" ~doc:"Input variant.")

let capacitance_opt =
  Arg.(
    value
    & opt float 0.4e-6
    & info [ "c"; "capacitance" ] ~docv:"FARADS"
        ~doc:
          "Voltage-regulator capacitance (default 0.4uF, the\n\
          \          paper-equivalent of 10uF at this dynamic scale).")

let levels_opt =
  Arg.(
    value
    & opt (some int) None
    & info [ "levels" ] ~docv:"N"
        ~doc:"Use N evenly spaced voltage levels instead of the XScale-3 \
              table.")

let input_of w = function
  | Some i -> i
  | None -> Dvs_workloads.Workload.default_input w

(* ---------------- input files ---------------- *)

let read_file file =
  let ic = open_in file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* [file] as one JSON document checked by [validate].  A file that is
   not JSON exits with [code]; so does a schema violation, reported as
   [what], unless [warn] is set, which prints it and goes on. *)
let read_json ~code ?(warn = false) ?(what = "schema violation") validate
    file =
  let fail fmt =
    Format.kasprintf (fun s -> Format.eprintf "%s@." s; exit code) fmt
  in
  let j =
    match Dvs_obs.Json.of_string (read_file file) with
    | Ok j -> j
    | Error e -> fail "%s: not JSON: %s" file e
  in
  (match validate j with
  | Ok () -> ()
  | Error e when warn -> Format.eprintf "warning: %s: %s@." file e
  | Error e -> fail "%s: %s: %s" file what e);
  j

(* ---------------- observability plumbing ---------------- *)

let trace_out_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a dvs-trace/v1 JSONL event log to FILE (inspect with \
              $(b,dvstool stats)).")

let metrics_out_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Write a dvs-metrics/v1 snapshot to FILE (inspect with \
              $(b,dvstool stats)).")

let obs_for ~trace ~metrics =
  if trace = None && metrics = None then Dvs_obs.disabled
  else Dvs_obs.create ()

let export_obs obs ~trace ~metrics ~meta =
  (match trace with
  | Some file ->
    let oc = open_out file in
    Dvs_obs.Trace.write_jsonl (Dvs_obs.trace obs) oc;
    close_out oc;
    Format.eprintf "trace written to %s@." file
  | None -> ());
  match metrics with
  | Some file ->
    let oc = open_out file in
    Dvs_obs.Json.to_channel oc
      (Dvs_obs.Metrics.snapshot ~meta (Dvs_obs.metrics obs));
    output_char oc '\n';
    close_out oc;
    Format.eprintf "metrics written to %s@." file
  | None -> ()

(* ---------------- list ---------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun (w : Dvs_workloads.Workload.t) ->
        Printf.printf "%-12s %s\n             inputs: %s\n" w.name
          w.description
          (String.concat ", " w.inputs))
      Dvs_workloads.Workload.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List benchmarks and input variants")
    Term.(const run $ const ())

(* ---------------- simulate ---------------- *)

let ooo_opt =
  Arg.(
    value & flag
    & info [ "ooo" ]
        ~doc:"Use the 4-wide out-of-order core model instead of the \
              in-order one.")

let simulate_cmd =
  let run w input capacitance levels ooo trace metrics =
    let input = input_of w input in
    let cfg, _, mem = Dvs_workloads.Workload.load w ~input in
    let machine = Dvs_workloads.Workload.machine ?levels ~capacitance () in
    let obs = obs_for ~trace ~metrics in
    let n = Dvs_power.Mode.size machine.Dvs_machine.Config.mode_table in
    for m = 0 to n - 1 do
      let r =
        if ooo then
          Dvs_machine.Cpu_ooo.run
            ~rc:(Dvs_machine.Cpu.Run_config.make ~initial_mode:m ())
            machine cfg ~memory:mem
        else
          Dvs_machine.Cpu.run
            ~rc:(Dvs_machine.Cpu.Run_config.make ~initial_mode:m ~obs ())
            machine cfg ~memory:mem
      in
      Format.printf
        "mode %d (%a): %.3f ms, %.1f uJ, %d instrs, L1 miss %.2f%%, L2 \
         miss %.2f%%@."
        m Dvs_power.Mode.pp
        (Dvs_power.Mode.get machine.Dvs_machine.Config.mode_table m)
        (r.Dvs_machine.Cpu.time *. 1e3)
        (r.Dvs_machine.Cpu.energy *. 1e6)
        r.Dvs_machine.Cpu.dyn_instrs
        (100.0
        *. float_of_int r.Dvs_machine.Cpu.l1.Dvs_machine.Cache.misses
        /. float_of_int (Int.max 1 r.Dvs_machine.Cpu.l1.Dvs_machine.Cache.accesses))
        (100.0
        *. float_of_int r.Dvs_machine.Cpu.l2.Dvs_machine.Cache.misses
        /. float_of_int (Int.max 1 r.Dvs_machine.Cpu.l2.Dvs_machine.Cache.accesses))
    done;
    export_obs obs ~trace ~metrics
      ~meta:
        [ ("command", Dvs_obs.Json.String "simulate");
          ("workload", Dvs_obs.Json.String w.Dvs_workloads.Workload.name);
          ("input", Dvs_obs.Json.String input);
          ("capacitance", Dvs_obs.Json.Float capacitance);
          ("modes", Dvs_obs.Json.Int n) ]
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a workload pinned at each DVS mode")
    Term.(
      const run $ workload_pos $ input_opt $ capacitance_opt $ levels_opt
      $ ooo_opt $ trace_out_opt $ metrics_out_opt)

(* ---------------- profile ---------------- *)

let profile_cmd =
  let run w input capacitance levels =
    let input = input_of w input in
    let cfg, _, mem = Dvs_workloads.Workload.load w ~input in
    let machine = Dvs_workloads.Workload.machine ?levels ~capacitance () in
    let p = Dvs_profile.Profile.collect machine cfg ~memory:mem in
    Format.printf "%a@." Dvs_profile.Profile.pp_summary p;
    let params =
      Dvs_profile.Categorize.of_profile p
        ~deadline:(Dvs_workloads.Deadlines.of_profile p).(2)
    in
    Format.printf "measured parameters: %a (%a)@." Dvs_analytical.Params.pp
      params Dvs_analytical.Params.pp_case
      (Dvs_analytical.Params.classify params);
    Format.printf "deadline set (ms):";
    Array.iter
      (fun d -> Format.printf " %.3f" (d *. 1e3))
      (Dvs_workloads.Deadlines.of_profile p);
    Format.printf "@."
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Profile a workload and print its Table-7-style parameters")
    Term.(const run $ workload_pos $ input_opt $ capacitance_opt $ levels_opt)

(* ---------------- optimize ---------------- *)

let deadline_frac_opt =
  Arg.(
    value
    & opt float 0.5
    & info [ "deadline-frac" ] ~docv:"F"
        ~doc:
          "Deadline position in the feasible range: 0 = fastest-mode \
           time, 1 = slowest-mode time.")

let no_filter_opt =
  Arg.(
    value & flag
    & info [ "no-filter" ] ~doc:"Disable Section 5.2 edge filtering.")

let save_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "save" ] ~docv:"FILE"
        ~doc:"Write the chosen schedule to FILE (reload with \
              $(b,dvstool apply)).")

let jobs_opt =
  let pos_int =
    let parse s =
      match Arg.conv_parser Arg.int s with
      | Ok n when n >= 1 -> Ok n
      | Ok n -> Error (`Msg (Printf.sprintf "JOBS must be >= 1, got %d" n))
      | Error _ as e -> e
    in
    Arg.conv (parse, Arg.conv_printer Arg.int)
  in
  Arg.(
    value
    & opt (some pos_int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the MILP search (default: the recommended \
           domain count of this machine).")

let store_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Consult (and fill) the content-addressed experiment store \
           rooted at DIR: profile simulations and solves whose inputs \
           are unchanged are rehydrated from disk instead of re-run \
           (see $(b,dvstool store)).")

let strict_opt =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Refuse degraded results: exit nonzero unless the schedule is \
           the verified MILP optimum (exit 3 = time-limit-degraded, 4 = \
           worker-crash-degraded, 5 = verify-reject-degraded).")

(* Exit codes come from the one table shared with the service client
   commands (see README and lib/service/protocol.mli): 0 ok (degraded
   results still exit 0 unless --strict), 1 infeasible or unbounded, 2
   no schedule from any rung, 3/4/5/6 degraded under --strict, 7/8/9
   service failures (always nonzero). *)
let exit_code ~strict cls =
  Dvs_service.Protocol.exit_code ~strict
    (Dvs_service.Protocol.class_of_pipeline cls)

let no_continuous_bound_opt =
  Arg.(
    value & flag
    & info [ "no-continuous-bound" ]
        ~doc:
          "Ablation: skip the exact continuous-schedule relaxation — no \
           root dual bound, no rounded incumbent seed, no sweep \
           pre-pruning, no continuous-rounded ladder rung.")

let optimize_cmd =
  let run w input capacitance levels frac no_filter save jobs strict
      no_continuous_bound store_root trace metrics =
    let input = input_of w input in
    let cfg, _, mem = Dvs_workloads.Workload.load w ~input in
    let machine = Dvs_workloads.Workload.machine ?levels ~capacitance () in
    let obs = obs_for ~trace ~metrics in
    let store =
      Option.map
        (fun root -> Dvs_store.Store.open_ ~obs ~root ())
        store_root
    in
    let p =
      Dvs_store.Exec.profile ?store
        ~source:(w.Dvs_workloads.Workload.name ^ ":" ^ input) machine cfg
        ~memory:mem
    in
    let n = Dvs_power.Mode.size machine.Dvs_machine.Config.mode_table in
    let t_fast = Dvs_profile.Profile.pinned_time p ~mode:(n - 1) in
    let t_slow = Dvs_profile.Profile.pinned_time p ~mode:0 in
    let deadline = t_fast +. (frac *. (t_slow -. t_fast)) in
    let solver = Dvs_milp.Solver.Config.make ?jobs () in
    let config =
      Dvs_core.Pipeline.Config.make ~filter:(not no_filter) ~solver
        ~continuous_bound:(not no_continuous_bound) ()
      |> Dvs_core.Pipeline.Config.with_obs obs
    in
    let r =
      Dvs_store.Exec.optimize_multi ?store ~config ~verify_config:machine
        ~regulator:machine.Dvs_machine.Config.regulator ~memory:mem
        [ { Dvs_core.Formulation.profile = p; weight = 1.0; deadline } ]
    in
    (* Export before any of the exit paths below. *)
    export_obs obs ~trace ~metrics
      ~meta:
        [ ("command", Dvs_obs.Json.String "optimize");
          ("workload", Dvs_obs.Json.String w.Dvs_workloads.Workload.name);
          ("input", Dvs_obs.Json.String input);
          ("jobs", Dvs_obs.Json.Int solver.Dvs_milp.Solver.Config.jobs);
          ("deadline", Dvs_obs.Json.Float deadline);
          ("deadline_frac", Dvs_obs.Json.Float frac);
          ("capacitance", Dvs_obs.Json.Float capacitance) ];
    let milp = r.Dvs_core.Pipeline.milp in
    Format.printf "deadline: %.3f ms (range %.3f..%.3f)@." (deadline *. 1e3)
      (t_fast *. 1e3) (t_slow *. 1e3);
    Format.printf "MILP: %a, %d binaries@." Dvs_milp.Solver.pp_outcome
      milp.Dvs_milp.Solver.outcome
      r.Dvs_core.Pipeline.formulation.Dvs_core.Formulation.n_binaries;
    Format.printf "solver: %a@." Dvs_milp.Solver.pp_stats
      milp.Dvs_milp.Solver.stats;
    (match r.Dvs_core.Pipeline.continuous_bound with
    | Some b -> Format.printf "continuous bound: %.1f uJ@." (b *. 1e6)
    | None -> ());
    List.iter
      (fun d ->
        Format.printf "ladder: %a@." Dvs_core.Pipeline.pp_descent d)
      r.Dvs_core.Pipeline.descents;
    (match r.Dvs_core.Pipeline.rung with
    | Some rung ->
      Format.printf "schedule source: %a@." Dvs_core.Pipeline.pp_rung rung
    | None -> ());
    let cls = Dvs_core.Pipeline.classify r in
    (match cls with
    | Dvs_core.Pipeline.Problem_infeasible ->
      Format.eprintf
        "error: no schedule can meet this deadline on this machine@.";
      exit (exit_code ~strict cls)
    | Dvs_core.Pipeline.No_schedule ->
      Format.eprintf
        "error: every rung of the degradation ladder failed (%a); retry \
         with a higher budget (--jobs, larger limits) or a laxer \
         deadline@."
        Dvs_milp.Solver.pp_outcome milp.Dvs_milp.Solver.outcome;
      exit (exit_code ~strict cls)
    | Dvs_core.Pipeline.Full | Dvs_core.Pipeline.Time_degraded
    | Dvs_core.Pipeline.Crash_degraded
    | Dvs_core.Pipeline.Verify_degraded -> ());
    (match r.Dvs_core.Pipeline.verification with
    | Some v ->
      Format.printf
        "verified: %.3f ms, %.1f uJ, %d mode transitions, deadline %s, \
         model error %.1f%%@."
        (v.Dvs_core.Verify.stats.Dvs_machine.Cpu.time *. 1e3)
        (v.Dvs_core.Verify.stats.Dvs_machine.Cpu.energy *. 1e6)
        v.Dvs_core.Verify.stats.Dvs_machine.Cpu.mode_transitions
        (if v.Dvs_core.Verify.meets_deadline then "met" else "MISSED")
        (100.0 *. v.Dvs_core.Verify.energy_error)
    | None -> ());
    (match Dvs_core.Baselines.best_single_mode p ~deadline with
    | Some (m, base) ->
      let saved =
        match r.Dvs_core.Pipeline.predicted_energy with
        | Some e -> 100.0 *. (1.0 -. (e /. base))
        | None -> 0.0
      in
      Format.printf "best single mode %d: %.1f uJ -> savings %.1f%%@." m
        (base *. 1e6) saved
    | None -> Format.printf "no single mode meets the deadline@.");
    (match (save, r.Dvs_core.Pipeline.schedule) with
    | Some file, Some schedule ->
      let oc = open_out file in
      output_string oc (Dvs_core.Schedule.to_string schedule);
      close_out oc;
      Format.printf "schedule saved to %s@." file
    | Some _, None -> Format.printf "no schedule to save@."
    | None, _ -> ());
    (match cls with
    | Dvs_core.Pipeline.Full -> ()
    | _ when strict ->
      Format.eprintf "error: --strict refuses a %a result@."
        Dvs_core.Pipeline.pp_class cls
    | _ ->
      Format.printf "warning: %a result (rerun with --strict to refuse)@."
        Dvs_core.Pipeline.pp_class cls);
    exit (exit_code ~strict cls)
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Place DVS mode-set instructions by MILP and verify them")
    Term.(
      const run $ workload_pos $ input_opt $ capacitance_opt $ levels_opt
      $ deadline_frac_opt $ no_filter_opt $ save_opt $ jobs_opt
      $ strict_opt $ no_continuous_bound_opt $ store_opt
      $ trace_out_opt $ metrics_out_opt)

(* ---------------- apply ---------------- *)

let apply_cmd =
  let schedule_file =
    Arg.(
      required
      & opt (some file) None
      & info [ "schedule" ] ~docv:"FILE"
          ~doc:"Schedule file produced by $(b,dvstool optimize --save).")
  in
  let run w input capacitance levels file =
    let input = input_of w input in
    let cfg, _, mem = Dvs_workloads.Workload.load w ~input in
    let machine = Dvs_workloads.Workload.machine ?levels ~capacitance () in
    match Dvs_core.Schedule.of_string (read_file file) with
    | Error msg ->
      Format.eprintf "bad schedule file: %s@." msg;
      exit 1
    | Ok schedule ->
      if Array.length schedule.Dvs_core.Schedule.edge_mode
         <> Array.length (Dvs_ir.Cfg.edges cfg)
      then begin
        Format.eprintf "schedule has %d edges, workload has %d@."
          (Array.length schedule.Dvs_core.Schedule.edge_mode)
          (Array.length (Dvs_ir.Cfg.edges cfg));
        exit 1
      end;
      let r =
        Dvs_machine.Cpu.run
          ~rc:
            (Dvs_machine.Cpu.Run_config.make
               ~initial_mode:schedule.Dvs_core.Schedule.entry_mode
               ~edge_modes:(Dvs_core.Schedule.edge_modes schedule cfg) ())
          machine cfg ~memory:mem
      in
      Format.printf
        "ran with schedule: %.3f ms, %.1f uJ, %d mode transitions@."
        (r.Dvs_machine.Cpu.time *. 1e3)
        (r.Dvs_machine.Cpu.energy *. 1e6)
        r.Dvs_machine.Cpu.mode_transitions
  in
  Cmd.v
    (Cmd.info "apply" ~doc:"Run a workload under a saved DVS schedule")
    Term.(
      const run $ workload_pos $ input_opt $ capacitance_opt $ levels_opt
      $ schedule_file)

(* ---------------- reproduce ---------------- *)

let cold_opt =
  Arg.(
    value & flag
    & info [ "cold" ]
        ~doc:
          "Solve each deadline independently instead of through the \
           parametric sweep engine (warm incumbent lifting, \
           continuous-bound pruning).")

let cold_verify_opt =
  Arg.(
    value & flag
    & info [ "cold-verify" ]
        ~doc:
          "Verify every point with a fresh cycle-accurate simulation \
           instead of summarized tape replay (the CI leg that keeps the \
           exact fallback path alive).")

let reproduce_cmd =
  let run w input capacitance levels jobs cold cold_verify
      no_continuous_bound store_root trace metrics =
    let input = input_of w input in
    let cfg, _, mem = Dvs_workloads.Workload.load w ~input in
    let machine = Dvs_workloads.Workload.machine ?levels ~capacitance () in
    let obs = obs_for ~trace ~metrics in
    let store =
      Option.map
        (fun root -> Dvs_store.Store.open_ ~obs ~root ())
        store_root
    in
    let p =
      Dvs_store.Exec.profile ?store
        ~source:(w.Dvs_workloads.Workload.name ^ ":" ^ input) machine cfg
        ~memory:mem
    in
    let deadlines = Dvs_workloads.Deadlines.sweep_of_profile p in
    let solver = Dvs_milp.Solver.Config.make ?jobs () in
    let config =
      Dvs_core.Pipeline.Config.make ~solver ~cold_verify
        ~continuous_bound:(not no_continuous_bound) ()
      |> Dvs_core.Pipeline.Config.with_obs obs
    in
    let results =
      if cold then
        Array.map
          (fun deadline ->
            Dvs_store.Exec.optimize_multi ?store ~config
              ~verify_config:machine
              ~regulator:machine.Dvs_machine.Config.regulator ~memory:mem
              [ { Dvs_core.Formulation.profile = p; weight = 1.0; deadline } ])
          deadlines
      else begin
        let sw =
          Dvs_store.Exec.optimize_sweep ?store ~config ~verify_config:machine
            ~profile:p machine cfg ~memory:mem ~deadlines
        in
        let st = sw.Dvs_core.Pipeline.sweep in
        Format.printf
          "sweep: %d/%d points warm-started, %d pruned by continuous \
           bound@."
          st.Dvs_milp.Sweep.instances_warm_started (Array.length deadlines)
          st.Dvs_milp.Sweep.points_pruned_by_bound;
        sw.Dvs_core.Pipeline.results
      end
    in
    Format.printf "%-12s %-10s %-28s %10s %10s %8s@." "deadline(ms)"
      "rung" "class" "pred(uJ)" "sim(uJ)" "save(%)";
    Array.iteri
      (fun i deadline ->
        let r = results.(i) in
        let rung =
          match r.Dvs_core.Pipeline.rung with
          | Some rg -> Format.asprintf "%a" Dvs_core.Pipeline.pp_rung rg
          | None -> "-"
        in
        let cls =
          Format.asprintf "%a" Dvs_core.Pipeline.pp_class
            (Dvs_core.Pipeline.classify r)
        in
        let pred =
          match r.Dvs_core.Pipeline.predicted_energy with
          | Some e -> Printf.sprintf "%.1f" (e *. 1e6)
          | None -> "-"
        in
        let sim =
          match r.Dvs_core.Pipeline.verification with
          | Some v ->
            Printf.sprintf "%.1f"
              (v.Dvs_core.Verify.stats.Dvs_machine.Cpu.energy *. 1e6)
          | None -> "-"
        in
        let save =
          match
            ( r.Dvs_core.Pipeline.predicted_energy,
              Dvs_core.Baselines.best_single_mode p ~deadline )
          with
          | Some e, Some (_, base) when base > 0.0 ->
            Printf.sprintf "%.1f" (100.0 *. (1.0 -. (e /. base)))
          | _ -> "-"
        in
        Format.printf "%-12.3f %-10s %-28s %10s %10s %8s@."
          (deadline *. 1e3) rung cls pred sim save)
      deadlines;
    export_obs obs ~trace ~metrics
      ~meta:
        [ ("command", Dvs_obs.Json.String "reproduce");
          ("workload", Dvs_obs.Json.String w.Dvs_workloads.Workload.name);
          ("input", Dvs_obs.Json.String input);
          ("jobs", Dvs_obs.Json.Int solver.Dvs_milp.Solver.Config.jobs);
          ("engine", Dvs_obs.Json.String (if cold then "cold" else "sweep"));
          ( "verify",
            Dvs_obs.Json.String (if cold_verify then "cold" else "summary") );
          ( "continuous_bound",
            Dvs_obs.Json.Bool (not no_continuous_bound) );
          ("deadlines", Dvs_obs.Json.Int (Array.length deadlines));
          ("capacitance", Dvs_obs.Json.Float capacitance) ]
  in
  Cmd.v
    (Cmd.info "reproduce"
       ~doc:
         "Run the full pipeline across the paper's Table-4 deadline set \
          for one workload (through the parametric sweep engine unless \
          $(b,--cold))")
    Term.(
      const run $ workload_pos $ input_opt $ capacitance_opt $ levels_opt
      $ jobs_opt $ cold_opt $ cold_verify_opt $ no_continuous_bound_opt
      $ store_opt $ trace_out_opt $ metrics_out_opt)

(* ---------------- stats ---------------- *)

let stats_cmd =
  let metrics_in =
    Arg.(
      value
      & opt (some file) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"dvs-metrics/v1 snapshot to pretty-print.")
  in
  let trace_in =
    Arg.(
      value
      & opt (some file) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"dvs-trace/v1 JSONL event log to summarize.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Validate the files against their documented schemas; exit 1 \
             on the first violation.")
  in
  let fail fmt = Format.kasprintf (fun s -> Format.eprintf "%s@." s; exit 1) fmt in
  let show_metrics file check =
    let j =
      read_json ~code:1 ~warn:(not check) Dvs_obs.Schema.validate_metrics file
    in
    let open Dvs_obs.Json in
    (match member "meta" j with
    | Some (Obj kvs) when kvs <> [] ->
      Format.printf "meta:@.";
      List.iter
        (fun (k, v) -> Format.printf "  %-24s %s@." k (to_string v))
        kvs
    | _ -> ());
    let section name pr =
      match member name j with
      | Some (Obj kvs) when kvs <> [] ->
        Format.printf "%s:@." name;
        List.iter (fun (k, v) -> pr k v) kvs
      | _ -> ()
    in
    section "counters" (fun k v ->
        let total = Option.bind (member "total" v) to_int in
        let stab = Option.bind (member "stability" v) to_string_opt in
        Format.printf "  %-28s %12d  (%s)@." k
          (Option.value ~default:0 total)
          (Option.value ~default:"?" stab));
    section "gauges" (fun k v ->
        let value = Option.bind (member "value" v) to_float in
        Format.printf "  %-28s %12g@." k
          (Option.value ~default:Float.nan value));
    section "histograms" (fun k v ->
        let count = Option.bind (member "count" v) to_int in
        let sum = Option.bind (member "sum" v) to_float in
        Format.printf "  %-28s count %-8d sum %g@." k
          (Option.value ~default:0 count)
          (Option.value ~default:0.0 sum))
  in
  let show_trace file check =
    let text = read_file file in
    let lines =
      String.split_on_char '\n' text
      |> List.filter (fun l -> String.trim l <> "")
    in
    (* name -> (count, span seconds) in first-seen order *)
    let tbl : (string, int ref * float ref) Hashtbl.t = Hashtbl.create 32 in
    let order = ref [] in
    let dropped = ref 0 in
    List.iteri
      (fun i line ->
        match Dvs_obs.Json.of_string line with
        | Error e -> fail "%s:%d: not JSON: %s" file (i + 1) e
        | Ok j ->
          (match Dvs_obs.Schema.validate_trace_line j with
          | Ok () -> ()
          | Error e ->
            if check then fail "%s:%d: schema violation: %s" file (i + 1) e
            else Format.eprintf "warning: %s:%d: %s@." file (i + 1) e);
          let open Dvs_obs.Json in
          let name =
            Option.value ~default:"?"
              (Option.bind (member "name" j) to_string_opt)
          in
          if name = "trace.summary" then
            dropped :=
              Option.value ~default:0
                (Option.bind (member "attrs" j) (fun a ->
                     Option.bind (member "dropped" a) to_int))
          else begin
            let c, d =
              match Hashtbl.find_opt tbl name with
              | Some slot -> slot
              | None ->
                let slot = (ref 0, ref 0.0) in
                Hashtbl.add tbl name slot;
                order := name :: !order;
                slot
            in
            incr c;
            match Option.bind (member "dur" j) to_float with
            | Some s -> d := !d +. s
            | None -> ()
          end)
      lines;
    Format.printf "trace: %d entries, %d dropped@."
      (List.length lines - 1) !dropped;
    List.iter
      (fun name ->
        let c, d = Hashtbl.find tbl name in
        if !d > 0.0 then
          Format.printf "  %-28s %8d  (%.3fs in spans)@." name !c !d
        else Format.printf "  %-28s %8d@." name !c)
      (List.rev !order)
  in
  let show_service file check =
    let j =
      read_json ~code:1 ~warn:(not check) Dvs_obs.Schema.validate_service file
    in
    let open Dvs_obs.Json in
    let str k = Option.bind (member k j) to_string_opt in
    let num ?(in_ = j) k = Option.bind (member k in_) to_float in
    let int k = Option.bind (member k j) to_int in
    Format.printf "leg %s: %d requests in %.2fs@."
      (Option.value ~default:"?" (str "leg"))
      (Option.value ~default:0 (int "requests"))
      (Option.value ~default:Float.nan (num "wall_seconds"));
    (match member "latency_ms" j with
    | Some lat ->
      Format.printf
        "latency ms: mean %.1f  p50 %.1f  p90 %.1f  p99 %.1f@."
        (Option.value ~default:Float.nan (num ~in_:lat "mean"))
        (Option.value ~default:Float.nan (num ~in_:lat "p50"))
        (Option.value ~default:Float.nan (num ~in_:lat "p90"))
        (Option.value ~default:Float.nan (num ~in_:lat "p99"))
    | None -> ());
    Format.printf "shed rate %.3f, batched %.0f%%, %d retries@."
      (Option.value ~default:Float.nan (num "shed_rate"))
      (100.0 *. Option.value ~default:Float.nan (num "batched_fraction"))
      (Option.value ~default:0 (int "retries"));
    (match num "savings_pct_mean" with
    | Some v when Float.is_nan v |> not ->
      Format.printf "mean savings %.1f%%@." v
    | _ -> ());
    match member "classes" j with
    | Some (Obj kvs) ->
      List.iter
        (fun (k, v) ->
          match to_int v with
          | Some n when n > 0 -> Format.printf "  %-18s %d@." k n
          | _ -> ())
        kvs
    | _ -> ()
  in
  let show_store file check =
    let j =
      read_json ~code:1 ~warn:(not check) Dvs_obs.Schema.validate_store file
    in
    let open Dvs_obs.Json in
    let str k =
      Option.value ~default:"?" (Option.bind (member k j) to_string_opt)
    in
    (* The check every store lookup applies: the checksum against the
       payload bytes as they sit in the file, and a live epoch. *)
    let verdict =
      match Dvs_store.Store.read_entry file with
      | Error e -> Error e
      | Ok e when e.Dvs_store.Store.en_epoch <> Dvs_store.Store.format_epoch
        ->
        Error
          (Printf.sprintf "stale epoch (this build reads epoch %d)"
             Dvs_store.Store.format_epoch)
      | Ok _ -> Ok ()
    in
    Format.printf "store entry: kind %s, epoch %d@." (str "kind")
      (Option.value ~default:0 (Option.bind (member "epoch" j) to_int));
    Format.printf "  key       %s@." (str "key");
    Format.printf "  checksum  %s (%s)@." (str "checksum")
      (match verdict with Ok () -> "ok" | Error e -> "rejected: " ^ e);
    (match member "payload" j with
    | Some (Obj kvs) ->
      Format.printf "  payload   %d members: %s@." (List.length kvs)
        (String.concat ", " (List.map fst kvs))
    | _ -> ());
    match verdict with
    | Error e when check -> fail "%s: %s" file e
    | _ -> ()
  in
  let run metrics trace service store check =
    if metrics = None && trace = None && service = None && store = None
    then begin
      Format.eprintf
        "nothing to do: pass --metrics, --trace, --service and/or \
         --store FILE@.";
      exit 2
    end;
    Option.iter (fun f -> show_metrics f check) metrics;
    Option.iter (fun f -> show_trace f check) trace;
    Option.iter (fun f -> show_service f check) service;
    Option.iter (fun f -> show_store f check) store
  in
  let service_in =
    Arg.(
      value
      & opt (some file) None
      & info [ "service" ] ~docv:"FILE"
          ~doc:"dvs-service/v1 loadgen report to pretty-print.")
  in
  let store_in =
    Arg.(
      value
      & opt (some file) None
      & info [ "store" ] ~docv:"FILE"
          ~doc:
            "dvs-store/v1 experiment-store entry to pretty-print; \
             $(b,--check) also applies the store's own entry check \
             (payload checksum over the bytes as written, live epoch).")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Pretty-print (and with $(b,--check) validate) metrics / trace \
          / service-report / store-entry files written by \
          $(b,--metrics) / $(b,--trace) / $(b,loadgen --report) / the \
          experiment store")
    Term.(const run $ metrics_in $ trace_in $ service_in $ store_in $ check)

(* ---------------- bench-diff ---------------- *)

let bench_diff_cmd =
  let baseline_in =
    Arg.(
      required
      & opt (some file) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Committed dvs-bench/v2 summary to compare against \
             (bench/BENCH_baseline.json in CI).")
  in
  let current_in =
    Arg.(
      required
      & opt (some file) None
      & info [ "current" ] ~docv:"FILE"
          ~doc:
            "Freshly generated dvs-bench/v2 summary \
             ($(b,bench/main.exe --emit-bench)).")
  in
  let max_regression_opt =
    Arg.(
      value
      & opt float 0.10
      & info [ "max-regression" ] ~docv:"FRAC"
          ~doc:
            "Allowed fractional growth of each work counter before the \
             diff fails (default 0.10 = 10%).")
  in
  let shed_tolerance_opt =
    Arg.(
      value
      & opt float 0.25
      & info [ "shed-tolerance" ] ~docv:"ABS"
          ~doc:
            "Allowed absolute drift of the service experiment's overload \
             shed rate before the diff fails (default 0.25); only \
             checked when both summaries carry a service section.")
  in
  let fail fmt =
    Format.kasprintf (fun s -> Format.eprintf "%s@." s; exit 2) fmt
  in
  let load =
    read_json ~code:2 ~what:"not a dvs-bench/v2 summary"
      Dvs_obs.Schema.validate_bench
  in
  (* A dotted name is a path into nested objects: "lu.refactorizations"
     reads the summary's lu section. *)
  let counter file j k =
    let field =
      List.fold_left
        (fun acc key -> Option.bind acc (Dvs_obs.Json.member key))
        (Some j)
        (String.split_on_char '.' k)
    in
    match Option.bind field Dvs_obs.Json.to_int with
    | Some n -> n
    | None -> fail "%s: missing integer field %s" file k
  in
  let run baseline current max_regression shed_tolerance same_stable =
    let bj = load baseline and cj = load current in
    (* A summary pair that did not run the same experiments compares
       apples to oranges: every counter diff below is suspect.  Warn
       loudly (one line per missing experiment) instead of silently
       skipping the rows that cannot be compared. *)
    let experiments file j =
      match Dvs_obs.Json.member "experiments" j with
      | Some (Dvs_obs.Json.List xs) ->
        List.filter_map Dvs_obs.Json.to_string_opt xs
      | _ -> fail "%s: missing experiments list" file
    in
    let bex = experiments baseline bj and cex = experiments current cj in
    List.iter
      (fun e ->
        if not (List.mem e cex) then
          Format.eprintf
            "warning: experiment %S ran in the baseline but not in the \
             current summary; its work is missing from every counter \
             below@."
            e)
      bex;
    List.iter
      (fun e ->
        if not (List.mem e bex) then
          Format.eprintf
            "warning: experiment %S ran in the current summary but not \
             in the baseline; its work inflates every counter below@."
            e)
      cex;
    (* Deterministic work counters gate the diff; wall-clock numbers are
       printed for context only (CI machines are too noisy to gate on).
       The LU factorization count is gated so that factorizations saved
       by reusing held factors cannot come back unnoticed. *)
    let gated =
      [ "lp_pivots"; "lp_solves"; "lp_flops"; "bb_nodes";
        "lu.refactorizations" ]
    in
    let informational = [ "solves" ] in
    let delta k =
      let b = counter baseline bj k and c = counter current cj k in
      let growth =
        if b > 0 then (float_of_int c -. float_of_int b) /. float_of_int b
        else if c > 0 then infinity
        else 0.0
      in
      (k, b, c, growth)
    in
    let print_row (k, b, c, growth) verdict =
      Format.printf "%-12s %12d -> %12d  %+7.2f%%%s@." k b c
        (100.0 *. growth) verdict
    in
    let rows = List.map delta gated in
    let regressed =
      List.filter (fun (_, _, _, growth) -> growth > max_regression) rows
    in
    List.iter
      (fun ((_, _, _, growth) as row) ->
        print_row row
          (if growth > max_regression then "  REGRESSION" else ""))
      rows;
    List.iter (fun k -> print_row (delta k) "  (informational)")
      informational;
    let print_wall k b c =
      Format.printf "%-12s %12.2f -> %12.2f  %+7.2f%%  (informational)@." k
        b c
        (if b > 0.0 then 100.0 *. ((c -. b) /. b) else 0.0)
    in
    (match
       ( Option.bind (Dvs_obs.Json.member "wall_seconds" bj)
           Dvs_obs.Json.to_float,
         Option.bind (Dvs_obs.Json.member "wall_seconds" cj)
           Dvs_obs.Json.to_float )
     with
    | Some b, Some c -> print_wall "wall_seconds" b c
    | _ -> ());
    (* The `reproduce' experiment's wall time graduates from
       informational to gated when both summaries ran it with either
       acceleration layer active — summarized verification
       (sim_summary_hits > 0) or the experiment store (store hits > 0).
       Tape replay / store rehydration make its runtime deterministic
       enough to hold to the same budget as the work counters, and it
       is the row that guards those layers' raison d'etre.  (A warm
       store run never creates a session at all, so its
       sim_summary_hits is 0: the store clause is what keeps the gate
       engaged there.) *)
    let summary_hits j =
      Option.value ~default:0
        (Option.bind (Dvs_obs.Json.member "sim_summary_hits" j)
           Dvs_obs.Json.to_int)
    in
    let store_hits j =
      match Dvs_obs.Json.member "store" j with
      | Some s ->
        List.fold_left
          (fun acc k ->
            acc
            + Option.value ~default:0
                (Option.bind (Dvs_obs.Json.member k s) Dvs_obs.Json.to_int))
          0
          [ "sim_hits"; "solve_hits"; "sweep_hits" ]
      | None -> 0
    in
    let warm j = summary_hits j > 0 || store_hits j > 0 in
    let gate_wall = warm bj && warm cj in
    let wall_regressed = ref false in
    (* Per-experiment wall times where both sides ran the experiment. *)
    (match
       ( Dvs_obs.Json.member "experiment_wall_seconds" bj,
         Dvs_obs.Json.member "experiment_wall_seconds" cj )
     with
    | Some (Dvs_obs.Json.Obj bw), Some (Dvs_obs.Json.Obj _ as cw) ->
      List.iter
        (fun (e, bv) ->
          match
            ( Dvs_obs.Json.to_float bv,
              Option.bind (Dvs_obs.Json.member e cw) Dvs_obs.Json.to_float )
          with
          | Some b, Some c ->
            if e = "reproduce" && gate_wall && b > 0.0 then begin
              let growth = (c -. b) /. b in
              if growth > max_regression then wall_regressed := true;
              Format.printf "%-12s %12.2f -> %12.2f  %+7.2f%%%s@."
                ("wall:" ^ e) b c (100.0 *. growth)
                (if growth > max_regression then "  REGRESSION"
                 else "  (gated)")
            end
            else print_wall ("wall:" ^ e) b c
          | _ -> ())
        bw
    | _ -> ());
    (* Service columns (PR 7): present only when both summaries ran the
       `service' experiment.  The clean-leg p99 is wall-clock and stays
       informational; the overload-leg shed rate is a stable property of
       admission control (bounded queue vs 12 impatient clients), so it
       is gated — with an *absolute* tolerance, because a shed-rate
       collapse means the bounded queue stopped shedding, which is the
       regression that matters. *)
    let service_field j k =
      Option.bind (Dvs_obs.Json.member "service" j) (fun s ->
          Option.bind (Dvs_obs.Json.member k s) Dvs_obs.Json.to_float)
    in
    let shed_regressed = ref false in
    (match
       (service_field bj "p99_seconds", service_field cj "p99_seconds")
     with
    | Some b, Some c -> print_wall "service:p99" b c
    | _ -> ());
    (match (service_field bj "shed_rate", service_field cj "shed_rate") with
    | Some b, Some c ->
      let drift = Float.abs (c -. b) in
      if drift > shed_tolerance then shed_regressed := true;
      Format.printf "%-12s %12.3f -> %12.3f  drift %.3f%s@."
        "service:shed" b c drift
        (if drift > shed_tolerance then "  REGRESSION"
         else
           Printf.sprintf "  (gated, tolerance %.2f)" shed_tolerance)
    | _ -> ());
    (* Continuous-bound pre-pruning (PR 9): when the baseline shows the
       sweep pruning points off the exact continuous certificate, the
       current run must still prune at least one — a silent fall to zero
       means the bound engine stopped certifying and every point went
       back to paying for a full solve.  Only checked when both
       summaries carry the field (so pre-PR 9 baselines stay diffable)
       and the current run did live sweep work: a warm run that answered
       its sweeps from the store honestly reports zero pruned points —
       volatile counters are not replayed — and that is a store hit, not
       a dead engine. *)
    let pruned_regressed = ref false in
    let sweep_store_hits j =
      match Dvs_obs.Json.member "store" j with
      | Some s ->
        Option.value ~default:0
          (Option.bind (Dvs_obs.Json.member "sweep_hits" s) Dvs_obs.Json.to_int)
      | None -> 0
    in
    (match
       ( Option.bind (Dvs_obs.Json.member "points_pruned_by_bound" bj)
           Dvs_obs.Json.to_int,
         Option.bind (Dvs_obs.Json.member "points_pruned_by_bound" cj)
           Dvs_obs.Json.to_int )
     with
    | Some b, Some c ->
      let live = sweep_store_hits cj = 0 in
      if b > 0 && c = 0 && live then pruned_regressed := true;
      Format.printf "%-12s %12d -> %12d%s@." "pruned" b c
        (if b > 0 && c = 0 && live then "  REGRESSION (pruning engine dead)"
         else if not live then "  (not gated: sweeps replayed from store)"
         else if b > 0 then "  (gated: must stay > 0)"
         else "  (informational)")
    | _ -> ());
    (* --same-stable: the cold-vs-warm store equivalence gate.  A store
       hit replays the cold run's captured stable counters, so the two
       summaries' deterministic metric subsets must be bit-identical —
       any drift means the store rehydrated something the live pipeline
       would not have produced. *)
    let stable_diff =
      if not same_stable then []
      else begin
        let subset file j =
          match Dvs_obs.Json.member "metrics" j with
          | Some m -> Dvs_obs.Metrics.stable_subset m
          | None -> fail "%s: missing metrics section" file
        in
        let bs = subset baseline bj and cs = subset current cj in
        if Dvs_obs.Json.to_string bs = Dvs_obs.Json.to_string cs then begin
          Format.printf "stable metrics: bit-identical@.";
          []
        end
        else begin
          (* Name the differing instruments so the failure is
             actionable from the CI log alone. *)
          let members section j =
            match Dvs_obs.Json.member section j with
            | Some (Dvs_obs.Json.Obj kvs) -> kvs
            | _ -> []
          in
          let names =
            List.concat_map
              (fun section ->
                let b = members section bs and c = members section cs in
                List.filter_map
                  (fun name ->
                    if List.assoc_opt name b = List.assoc_opt name c then
                      None
                    else Some (section ^ "." ^ name))
                  (List.sort_uniq compare
                     (List.map fst b @ List.map fst c)))
              [ "counters"; "gauges"; "histograms" ]
          in
          let names = if names = [] then [ "(structure)" ] else names in
          List.iter
            (fun n -> Format.printf "stable metrics differ: %s@." n)
            names;
          names
        end
      end
    in
    match
      (regressed, !wall_regressed, !shed_regressed, !pruned_regressed,
       stable_diff)
    with
    | [], false, false, false, [] ->
      Format.printf "bench-diff: ok (max allowed regression %.0f%%)@."
        (100.0 *. max_regression)
    | _ ->
      Format.eprintf
        "bench-diff: %d counter(s)%s%s%s%s regressed; if the growth is \
         intended, regenerate the baseline with `bench/main.exe -- \
         resilience fig18 reproduce service --emit-bench \
         bench/BENCH_baseline.json'@."
        (List.length regressed)
        (if !wall_regressed then " + the reproduce wall" else "")
        (if !shed_regressed then " + the service shed rate" else "")
        (if !pruned_regressed then " + the sweep pre-pruning count" else "")
        (if stable_diff <> [] then " + the stable metrics subset" else "");
      exit 1
  in
  let same_stable_opt =
    Arg.(
      value & flag
      & info [ "same-stable" ]
          ~doc:
            "Additionally require the two summaries' stable metrics \
             subsets ($(b,Metrics.stable_subset): wall-clock stripped, \
             volatile instruments dropped) to be bit-identical — the \
             cold-vs-warm experiment-store equivalence gate.")
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare two dvs-bench/v2 summaries; fail on LP work-counter \
          (and service shed-rate) regressions, and with \
          $(b,--same-stable) on any stable-metric drift")
    Term.(
      const run $ baseline_in $ current_in $ max_regression_opt
      $ shed_tolerance_opt $ same_stable_opt)

(* ---------------- store: stats / gc / verify ---------------- *)

let store_cmd =
  let root_opt =
    Arg.(
      value
      & opt string Dvs_store.Store.default_root
      & info [ "root" ] ~docv:"DIR"
          ~doc:"Experiment-store root directory (default $(b,_store)).")
  in
  let stats_c =
    let run root =
      let s = Dvs_store.Store.open_ ~root () in
      let d = Dvs_store.Store.disk_stats s in
      Format.printf "%s: %d entries, %d bytes (epoch %d)@." root
        d.Dvs_store.Store.entries d.Dvs_store.Store.bytes
        (Dvs_store.Store.epoch s);
      List.iter
        (fun (kind, n) -> Format.printf "  %-8s %d@." kind n)
        d.Dvs_store.Store.by_kind
    in
    Cmd.v
      (Cmd.info "stats" ~doc:"Entry and byte counts of the on-disk store")
      Term.(const run $ root_opt)
  in
  let gc_c =
    let max_entries_opt =
      Arg.(
        value
        & opt (some int) None
        & info [ "max-entries" ] ~docv:"N"
            ~doc:"LRU entry bound to enforce (default 4096).")
    in
    let max_bytes_opt =
      Arg.(
        value
        & opt (some int) None
        & info [ "max-bytes" ] ~docv:"N"
            ~doc:"LRU byte bound to enforce (default 256 MiB).")
    in
    let run root max_entries max_bytes =
      let s =
        Dvs_store.Store.open_ ?max_entries ?max_bytes ~root ()
      in
      let r = Dvs_store.Store.gc s in
      Format.printf
        "gc %s: scanned %d, kept %d (dropped %d stale, %d corrupt, %d \
         over the LRU bound)@."
        root r.Dvs_store.Store.gc_scanned r.Dvs_store.Store.gc_kept
        r.Dvs_store.Store.gc_stale r.Dvs_store.Store.gc_corrupt
        r.Dvs_store.Store.gc_evicted
    in
    Cmd.v
      (Cmd.info "gc"
         ~doc:
           "Drop stale and corrupt entries, then enforce the LRU bounds")
      Term.(const run $ root_opt $ max_entries_opt $ max_bytes_opt)
  in
  let verify_c =
    let run root =
      let s = Dvs_store.Store.open_ ~root () in
      let r = Dvs_store.Store.verify s in
      Format.printf "verify %s: %d checked, %d ok, %d stale, %d corrupt@."
        root r.Dvs_store.Store.vr_checked r.Dvs_store.Store.vr_ok
        r.Dvs_store.Store.vr_stale
        (List.length r.Dvs_store.Store.vr_corrupt);
      List.iter
        (fun (file, reason) -> Format.printf "  %s: %s@." file reason)
        r.Dvs_store.Store.vr_corrupt;
      if r.Dvs_store.Store.vr_corrupt <> [] then exit 1
    in
    Cmd.v
      (Cmd.info "verify"
         ~doc:
           "Read-only integrity scan: parse and checksum every entry, \
            touching nothing; exit 1 if any entry is corrupt")
      Term.(const run $ root_opt)
  in
  Cmd.group
    (Cmd.info "store"
       ~doc:
         "Inspect and maintain the content-addressed experiment store \
          (see $(b,reproduce --store), $(b,serve --store) and the \
          $(b,DVS_STORE) variable read by the bench harness)")
    [ stats_c; gc_c; verify_c ]

(* ---------------- service: serve / request / loadgen ---------------- *)

let socket_opt =
  Arg.(
    value
    & opt string "/tmp/dvsd.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket the daemon listens on.")

(* "name" or "name:input" *)
let parse_workload_spec s =
  match String.index_opt s ':' with
  | Some i ->
    (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))
  | None -> (s, None)

let serve_cmd =
  let workers =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N" ~doc:"Worker domains serving requests.")
  in
  let queue_depth =
    Arg.(
      value & opt int 64
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:
            "Admission-queue bound; a submit against a full queue is shed \
             with a typed overloaded rejection instead of buffered.")
  in
  let budget =
    Arg.(
      value & opt float 2.0
      & info [ "budget" ] ~docv:"SECONDS"
          ~doc:
            "Default wall-clock budget for requests that carry none; \
             queueing time is charged against it and the remainder picks \
             the degradation-ladder entry.")
  in
  let batch_max =
    Arg.(
      value & opt int 8
      & info [ "batch-max" ] ~docv:"N"
          ~doc:"Near-duplicate requests solved as one sweep (1 disables).")
  in
  let max_nodes =
    Arg.(
      value & opt int 4000
      & info [ "max-nodes" ] ~docv:"N"
          ~doc:"MILP node budget per solve.")
  in
  let warm =
    Arg.(
      value
      & opt_all string []
      & info [ "warm" ] ~docv:"WORKLOAD[:INPUT]"
          ~doc:
            "Pre-build warm state (compile, profile, verification \
             session) before accepting traffic; repeatable.")
  in
  let run socket workers queue_depth budget batch_max max_nodes capacitance
      levels store_root warm =
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let engine_config =
      try
        Dvs_service.Engine.Config.make ~workers ~queue_depth
          ~default_budget_s:budget ~batch_max ~max_nodes ~capacitance
          ?levels ?store_root ()
      with Invalid_argument msg ->
        Format.eprintf "error: %s@." msg;
        exit 9
    in
    match Dvs_service.Daemon.start ~engine_config ~socket () with
    | exception Failure msg ->
      Format.eprintf "error: %s@." msg;
      exit 9
    | d ->
      (match List.map parse_workload_spec warm with
      | [] -> ()
      | pairs -> (
        match Dvs_service.Engine.warm (Dvs_service.Daemon.engine d) pairs with
        | () -> Format.eprintf "warmed %d workload(s)@." (List.length pairs)
        | exception Not_found ->
          Format.eprintf "error: unknown workload in --warm@.";
          Dvs_service.Daemon.stop d;
          exit 9));
      let on_signal _ = Dvs_service.Daemon.stop d in
      Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
      Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
      Format.eprintf "dvsd listening on %s (%d workers, queue %d)@." socket
        workers queue_depth;
      Dvs_service.Daemon.run d;
      Format.eprintf "dvsd stopped@."
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the long-lived solve service on a Unix-domain socket \
          (bounded admission queue, per-request budgets, near-duplicate \
          batching, idempotent retries)")
    Term.(
      const run $ socket_opt $ workers $ queue_depth $ budget $ batch_max
      $ max_nodes $ capacitance_opt $ levels_opt $ store_opt $ warm)

let request_cmd =
  let budget =
    Arg.(
      value
      & opt (some float) None
      & info [ "budget" ] ~docv:"SECONDS"
          ~doc:"Wall-clock budget for this request (server default when \
                absent).")
  in
  let mode =
    Arg.(
      value
      & opt (some int) None
      & info [ "mode" ] ~docv:"M"
          ~doc:"Ask for a pinned simulation at mode M instead of an \
                optimization.")
  in
  let id =
    Arg.(
      value
      & opt (some string) None
      & info [ "id" ] ~docv:"ID"
          ~doc:
            "Idempotency key: retries under the same id are served the \
             memoized reply instead of re-solving (default: fresh \
             per-invocation id).")
  in
  let retries =
    Arg.(
      value & opt int 5
      & info [ "retries" ] ~docv:"N"
          ~doc:"Retries (exponential backoff) when the daemon sheds the \
                request as overloaded.")
  in
  let shutdown =
    Arg.(
      value & flag
      & info [ "shutdown" ]
          ~doc:"Ask the daemon to drain and exit (no workload needed).")
  in
  let run socket w input frac budget mode id retries strict shutdown =
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let module P = Dvs_service.Protocol in
    let body =
      match (shutdown, w, mode) with
      | true, _, _ -> P.Shutdown
      | false, None, _ ->
        Format.eprintf "error: a WORKLOAD is required unless --shutdown@.";
        exit 9
      | false, Some w, Some m ->
        P.Simulate
          { workload = w.Dvs_workloads.Workload.name; input; mode = m }
      | false, Some w, None ->
        P.Optimize
          { workload = w.Dvs_workloads.Workload.name; input;
            deadline_frac = frac; budget_s = budget; chaos = None }
    in
    let id =
      match id with
      | Some s -> s
      | None ->
        Printf.sprintf "cli-%d-%07.0f" (Unix.getpid ())
          (Float.rem (Unix.gettimeofday () *. 1e3) 1e7)
    in
    let c =
      match Dvs_service.Client.connect ~socket with
      | c -> c
      | exception Unix.Unix_error (e, _, _) ->
        Format.eprintf "error: cannot reach dvsd at %s: %s@." socket
          (Unix.error_message e);
        exit 9
    in
    let reply, used =
      try Dvs_service.Client.request ~retries c { P.id; body }
      with
      | Failure msg ->
        Format.eprintf "error: %s@." msg;
        exit 9
      | P.Closed ->
        Format.eprintf "error: daemon closed the connection@.";
        exit 9
    in
    Dvs_service.Client.close c;
    let cls = P.class_of_reply reply in
    Format.printf "class: %s (queued %.1f ms, served %.1f ms%s%s)@."
      (P.class_name cls) reply.P.queue_ms reply.P.service_ms
      (if reply.P.batched > 1 then
         Printf.sprintf ", batch of %d" reply.P.batched
       else "")
      (if used > 0 then Printf.sprintf ", %d retries" used else "");
    (match reply.P.body with
    | P.Scheduled s ->
      (match s.P.rung with
      | Some rung -> Format.printf "schedule source: %s@." rung
      | None -> ());
      Format.printf "deadline: %.3f ms@." s.P.deadline_ms;
      (match (s.P.measured_ms, s.P.measured_uj) with
      | Some ms, Some uj ->
        Format.printf "verified: %.3f ms, %.1f uJ, deadline %s@." ms uj
          (match s.P.meets_deadline with
          | Some true -> "met"
          | Some false -> "MISSED"
          | None -> "unchecked")
      | _ -> ());
      Option.iter
        (fun pct ->
          Format.printf "savings vs best single mode: %.1f%%@." pct)
        s.P.savings_pct
    | P.Rejected_overloaded { queue_len; queue_cap } ->
      Format.eprintf "rejected: queue full (%d/%d)@." queue_len queue_cap
    | P.Rejected_budget { budget_s; waited_s } ->
      Format.eprintf "rejected: budget %.3fs drained (waited %.3fs)@."
        budget_s waited_s
    | P.Failed_reply msg -> Format.eprintf "failed: %s@." msg
    | P.Bye -> Format.printf "daemon draining@."
    | P.Sweep_points _ | P.Pong | P.Stats_reply _ -> ());
    exit (P.exit_code ~strict cls)
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:
         "Send one optimize (or $(b,--mode) simulate, or \
          $(b,--shutdown)) request to a running $(b,dvstool serve) \
          daemon; exits through the shared exit-code table")
    Term.(
      const run $ socket_opt
      $ Arg.(
          value
          & pos 0 (some workload_arg) None
          & info [] ~docv:"WORKLOAD"
              ~doc:"Benchmark name (optional with $(b,--shutdown)).")
      $ input_opt $ deadline_frac_opt $ budget $ mode $ id $ retries
      $ strict_opt $ shutdown)

let loadgen_cmd =
  let leg_name =
    Arg.(
      value & opt string "leg"
      & info [ "name" ] ~docv:"NAME" ~doc:"Leg name stamped into the \
                                           report and request ids.")
  in
  let requests =
    Arg.(
      value & opt int 50
      & info [ "requests" ] ~docv:"N" ~doc:"Requests to send.")
  in
  let rate =
    Arg.(
      value & opt float 20.0
      & info [ "rate" ] ~docv:"HZ"
          ~doc:"Mean arrival rate (Poisson process).")
  in
  let clients =
    Arg.(
      value & opt int 4
      & info [ "clients" ] ~docv:"N" ~doc:"Concurrent client connections.")
  in
  let workloads =
    Arg.(
      value
      & opt (list string) [ "adpcm" ]
      & info [ "workloads" ] ~docv:"W[:I],..."
          ~doc:"Workloads cycled through by the request stream.")
  in
  let fracs =
    Arg.(
      value
      & opt (list float) [ 0.3; 0.5; 0.7 ]
      & info [ "fracs" ] ~docv:"F,..."
          ~doc:"Deadline fractions sampled per request.")
  in
  let budget =
    Arg.(
      value
      & opt (some float) None
      & info [ "budget" ] ~docv:"SECONDS" ~doc:"Per-request budget.")
  in
  let chaos_crash =
    Arg.(
      value & opt float 0.0
      & info [ "chaos-crash" ] ~docv:"P"
          ~doc:"Per-request probability of an injected solver-worker \
                crash.")
  in
  let chaos_exhaust =
    Arg.(
      value & opt float 0.0
      & info [ "chaos-exhaust" ] ~docv:"P"
          ~doc:"Per-request probability of exhausted LP pivot budgets.")
  in
  let chaos_poison =
    Arg.(
      value & opt float 0.0
      & info [ "chaos-poison" ] ~docv:"P"
          ~doc:"Per-request probability of a poisoned request (raises \
                inside the service worker; tests containment).")
  in
  let chaos_seed =
    Arg.(
      value & opt int 1
      & info [ "chaos-seed" ] ~docv:"K"
          ~doc:"Chaos seed: triggers are a pure function of (seed, \
                request id).")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"K" ~doc:"Traffic seed (ids, fractions, \
                                        arrivals).")
  in
  let report =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:"Write the dvs-service/v1 leg report to FILE (inspect \
                with $(b,dvstool stats --service)).")
  in
  let max_shed =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-shed-rate" ] ~docv:"FRAC"
          ~doc:"Exit 1 when the shed rate exceeds FRAC (CI gate).")
  in
  let run socket name requests rate clients workloads fracs budget
      chaos_crash chaos_exhaust chaos_poison chaos_seed seed report
      max_shed =
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let module P = Dvs_service.Protocol in
    let module L = Dvs_service.Loadgen in
    let chaos =
      if chaos_crash = 0.0 && chaos_exhaust = 0.0 && chaos_poison = 0.0
      then None
      else
        Some
          (P.chaos ~crash_rate:chaos_crash ~exhaust_rate:chaos_exhaust
             ~poison_rate:chaos_poison ~seed:chaos_seed ())
    in
    let leg =
      try
        L.leg ~clients
          ~workloads:(List.map parse_workload_spec workloads)
          ~fracs ?budget_s:budget ?chaos ~seed ~name ~requests
          ~rate_hz:rate ()
      with Invalid_argument msg ->
        Format.eprintf "error: %s@." msg;
        exit 9
    in
    let stats =
      try L.run ~socket leg
      with Unix.Unix_error (e, _, _) ->
        Format.eprintf "error: cannot reach dvsd at %s: %s@." socket
          (Unix.error_message e);
        exit 9
    in
    Format.printf "%a@." L.pp stats;
    (match report with
    | Some file ->
      let oc = open_out file in
      Dvs_obs.Json.to_channel oc (L.to_json stats);
      output_char oc '\n';
      close_out oc;
      Format.eprintf "report written to %s@." file
    | None -> ());
    match max_shed with
    | Some cap when stats.L.shed_rate > cap ->
      Format.eprintf "error: shed rate %.3f exceeds --max-shed-rate %.3f@."
        stats.L.shed_rate cap;
      exit 1
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive a running daemon with seeded closed-loop traffic \
          (optionally chaos-injected) and report latency percentiles, \
          shed rate and savings under load")
    Term.(
      const run $ socket_opt $ leg_name $ requests $ rate $ clients
      $ workloads
      $ fracs $ budget $ chaos_crash $ chaos_exhaust $ chaos_poison
      $ chaos_seed $ seed $ report $ max_shed)

(* ---------------- analyze ---------------- *)

let analyze_cmd =
  let nov =
    Arg.(value & opt float 1500.0 & info [ "nov" ] ~docv:"KCYC"
           ~doc:"Overlappable computation cycles (thousands).")
  in
  let ndep =
    Arg.(value & opt float 1200.0 & info [ "ndep" ] ~docv:"KCYC"
           ~doc:"Dependent computation cycles (thousands).")
  in
  let ncache =
    Arg.(value & opt float 300.0 & info [ "ncache" ] ~docv:"KCYC"
           ~doc:"Cache-hit memory cycles (thousands).")
  in
  let tinv =
    Arg.(value & opt float 3500.0 & info [ "tinv" ] ~docv:"US"
           ~doc:"Cache-miss (asynchronous) time, microseconds.")
  in
  let tdl =
    Arg.(value & opt float 6000.0 & info [ "deadline" ] ~docv:"US"
           ~doc:"Deadline, microseconds.")
  in
  let run nov ndep ncache tinv tdl levels =
    let p =
      Dvs_analytical.Params.make ~n_overlap:(nov *. 1e3)
        ~n_dependent:(ndep *. 1e3) ~n_cache:(ncache *. 1e3)
        ~t_invariant:(tinv *. 1e-6) ~t_deadline:(tdl *. 1e-6)
    in
    Format.printf "%a: %a@." Dvs_analytical.Params.pp p
      Dvs_analytical.Params.pp_case
      (Dvs_analytical.Params.classify p);
    (match Dvs_analytical.Savings.continuous p with
    | Some r -> Format.printf "continuous savings bound: %.1f%%@." (100.0 *. r)
    | None -> Format.printf "infeasible deadline@.");
    let n = Option.value ~default:7 levels in
    match
      Dvs_analytical.Savings.discrete p (Dvs_power.Mode.xscale_levels n)
    with
    | Some r ->
      Format.printf "%d-level discrete savings: %.1f%%@." n (100.0 *. r)
    | None -> Format.printf "%d-level table cannot meet the deadline@." n
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Evaluate the Section 3 analytical model")
    Term.(const run $ nov $ ndep $ ncache $ tinv $ tdl $ levels_opt)

(* ---------------- paths ---------------- *)

let paths_cmd =
  let top =
    Arg.(
      value & opt int 5
      & info [ "top" ] ~docv:"N" ~doc:"How many hot paths to show.")
  in
  let run w input top =
    let input = input_of w input in
    let cfg, _, mem = Dvs_workloads.Workload.load w ~input in
    let bl = Dvs_profile.Ball_larus.compute cfg in
    let trace =
      (Dvs_ir.Interp.run ~trace:true cfg ~memory:mem)
        .Dvs_ir.Interp.block_trace
    in
    let counts = Dvs_profile.Ball_larus.count_trace bl trace in
    let total = List.fold_left (fun a (_, c) -> a + c) 0 counts in
    Format.printf "%d static paths; %d dynamic segments, %d distinct@."
      (Dvs_profile.Ball_larus.num_paths bl)
      total (List.length counts);
    List.iteri
      (fun rank (id, c) ->
        if rank < top then begin
          let blocks = Dvs_profile.Ball_larus.decode bl id in
          Format.printf "#%d  path %d: %d times (%.1f%%)  [%s]@." (rank + 1)
            id c
            (100.0 *. float_of_int c /. float_of_int (Int.max 1 total))
            (String.concat " -> "
               (List.map
                  (fun l -> (Dvs_ir.Cfg.block cfg l).Dvs_ir.Cfg.name)
                  blocks))
        end)
      counts
  in
  Cmd.v
    (Cmd.info "paths" ~doc:"Ball-Larus hot-path profile of a workload")
    Term.(const run $ workload_pos $ input_opt $ top)

(* ---------------- loops ---------------- *)

let loops_cmd =
  let run w input =
    let input = input_of w input in
    let cfg, _, mem = Dvs_workloads.Workload.load w ~input in
    let dom = Dvs_ir.Dominators.compute cfg in
    let loops = Dvs_ir.Dominators.natural_loops cfg dom in
    let machine = Dvs_workloads.Workload.machine ~capacitance:0.4e-6 () in
    let p = Dvs_profile.Profile.collect machine cfg ~memory:mem in
    Format.printf "%d natural loops@." (List.length loops);
    List.iter
      (fun (l : Dvs_ir.Dominators.loop) ->
        let trips =
          List.fold_left
            (fun acc (e : Dvs_ir.Cfg.edge) ->
              acc + Dvs_profile.Profile.g_of_edge p e)
            0 l.back_edges
        in
        Format.printf
          "header %s (L%d): %d blocks, %d back-edge traversals@."
          (Dvs_ir.Cfg.block cfg l.header).Dvs_ir.Cfg.name l.header
          (List.length l.body) trips)
      loops
  in
  Cmd.v
    (Cmd.info "loops" ~doc:"Natural loops of a workload, with trip counts")
    Term.(const run $ workload_pos $ input_opt)

(* ---------------- compile ---------------- *)

let compile_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"MiniC source file.")
  in
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz instead of text.")
  in
  let run file dot =
    match Dvs_lang.Lower.compile_string (read_file file) with
    | cfg, layout ->
      if dot then print_string (Dvs_ir.Cfg.to_dot cfg)
      else begin
        Format.printf "%a" Dvs_ir.Cfg.pp cfg;
        Format.printf "data segment: %d words@."
          layout.Dvs_lang.Lower.memory_words
      end
    | exception Dvs_lang.Parser.Error (msg, pos) ->
      Format.eprintf "parse error at %a: %s@." Dvs_lang.Token.pp_pos pos msg;
      exit 1
    | exception Dvs_lang.Lexer.Error (msg, pos) ->
      Format.eprintf "lex error at %a: %s@." Dvs_lang.Token.pp_pos pos msg;
      exit 1
    | exception Dvs_lang.Typecheck.Error msg ->
      Format.eprintf "type error: %s@." msg;
      exit 1
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a MiniC file and dump its CFG")
    Term.(const run $ file $ dot)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "dvstool" ~version:"1.0"
             ~doc:"Compile-time DVS toolkit (PLDI'03 reproduction)")
          [ list_cmd; simulate_cmd; profile_cmd; optimize_cmd; apply_cmd;
            reproduce_cmd; stats_cmd; bench_diff_cmd; store_cmd; serve_cmd;
            request_cmd; loadgen_cmd; analyze_cmd; compile_cmd; paths_cmd;
            loops_cmd ]))
