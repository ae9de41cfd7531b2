(* Bechamel micro-benchmarks of the core engines: the MILP stack (a
   representative DVS formulation solve, and gsm's unfiltered Table-4
   solve, heavy in probes and factorizations), the raw simplex, the three
   machine kernels (cycle-level simulation, tape recording, tape replay),
   one cold profile-and-sweep job, a warm experiment-store replay, and
   the analytical optimizer.  These
   are the performance numbers behind the Figure 14/18 solve-time
   claims. *)

open Bechamel
open Toolkit

let simplex_test_model () =
  (* A mid-size random-but-fixed LP: 40 vars, 25 constraints. *)
  let m = Dvs_lp.Model.create () in
  let r = Dvs_workloads.Rng.create 7 in
  let vars =
    Array.init 40 (fun _ -> Dvs_lp.Model.add_var ~ub:10.0 m)
  in
  for _ = 1 to 25 do
    let terms =
      List.init 40 (fun j ->
          (float_of_int (Dvs_workloads.Rng.int r 9) -. 4.0, vars.(j)))
    in
    Dvs_lp.Model.add_constraint m (Dvs_lp.Expr.of_terms terms) Dvs_lp.Model.Le
      (float_of_int (20 + Dvs_workloads.Rng.int r 30))
  done;
  Dvs_lp.Model.set_objective m Dvs_lp.Model.Minimize
    (Dvs_lp.Expr.of_terms
       (List.init 40 (fun j ->
            (float_of_int (Dvs_workloads.Rng.int r 9) -. 4.0, vars.(j)))));
  m

(* The store's warm path for mpeg, the program with the largest memory
   image: the profile and the Table-4 sweep grid through [Exec], both
   store hits.  The untimed first [job] fills the fresh store at [root],
   so every timed call replays from disk. *)
let store_warm_mpeg root =
  let w = Dvs_workloads.Workload.find "mpeg" in
  let input = Dvs_workloads.Workload.default_input w in
  let cfg, _, memory = Dvs_workloads.Workload.load w ~input in
  let machine = Dvs_workloads.Workload.eval_config () in
  let store = Dvs_store.Store.open_ ~root () in
  let job () =
    let profile =
      Dvs_store.Exec.profile ~store ~source:("mpeg:" ^ input) machine cfg
        ~memory
    in
    Dvs_store.Exec.optimize_sweep ~store ~verify_config:machine ~profile
      machine cfg ~memory
      ~deadlines:(Dvs_workloads.Deadlines.sweep_of_profile profile)
  in
  ignore (job ());
  Staged.stage (fun () -> ignore (job ()))

(* A store is one flat directory of entry files. *)
let remove_store root =
  if Sys.file_exists root then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat root f))
      (Sys.readdir root);
    Sys.rmdir root
  end

let tests ~store_root =
  let simplex_model = simplex_test_model () in
  let adpcm = Dvs_workloads.Workload.find "adpcm" in
  let cfg, _, mem =
    Dvs_workloads.Workload.load adpcm
      ~input:(Dvs_workloads.Workload.default_input adpcm)
  in
  let machine = Dvs_workloads.Workload.eval_config () in
  let gs = Dvs_workloads.Workload.find "ghostscript" in
  let gs_cfg, _, gs_mem =
    Dvs_workloads.Workload.load gs
      ~input:(Dvs_workloads.Workload.default_input gs)
  in
  let gs_profile = Dvs_profile.Profile.collect machine gs_cfg ~memory:gs_mem in
  let gs_deadline =
    (Dvs_workloads.Deadlines.of_profile gs_profile).(2)
  in
  let gs_categories =
    [ { Dvs_core.Formulation.profile = gs_profile; weight = 1.0;
        deadline = gs_deadline } ]
  in
  let gs_formulation =
    Dvs_core.Formulation.build ~regulator:Dvs_power.Switch_cost.default
      gs_categories
  in
  let gs_relax =
    Dvs_core.Relaxation.prepare gs_formulation
      ~regulator:Dvs_power.Switch_cost.default gs_categories
  in
  let gs_deadlines_us = [| gs_deadline *. 1e6 |] in
  (* gsm's unfiltered Table-4 model at its middle grid deadline, solved
     at jobs 1 and verified on a warm session, so the row is the MILP. *)
  let t4_regulator = Dvs_power.Switch_cost.regulator ~capacitance:0.4e-6 () in
  let t4_machine =
    Dvs_workloads.Workload.eval_config ~regulator:t4_regulator ()
  in
  let gsm = Dvs_workloads.Workload.find "gsm" in
  let gsm_cfg, _, gsm_mem =
    Dvs_workloads.Workload.load gsm
      ~input:(Dvs_workloads.Workload.default_input gsm)
  in
  let gsm_profile =
    Dvs_profile.Profile.collect t4_machine gsm_cfg ~memory:gsm_mem
  in
  let gsm_deadlines = Dvs_workloads.Deadlines.of_profile gsm_profile in
  let gsm_session =
    Dvs_core.Verify.Session.create t4_machine gsm_cfg ~memory:gsm_mem
  in
  let gsm_unfiltered () =
    Dvs_core.Pipeline.optimize_multi
      ~config:
        (Dvs_core.Pipeline.Config.make ~filter:false
           ~solver:(Dvs_milp.Solver.Config.make ~jobs:1 ())
           ())
      ~session:gsm_session ~regulator:t4_regulator ~memory:gsm_mem
      [ { Dvs_core.Formulation.profile = gsm_profile; weight = 1.0;
          deadline = gsm_deadlines.(Array.length gsm_deadlines / 2) } ]
  in
  let params =
    Dvs_analytical.Params.make ~n_overlap:4e6 ~n_dependent:5.8e6
      ~n_cache:3e5 ~t_invariant:3e-3 ~t_deadline:5e-3
  in
  let table7 = Dvs_power.Mode.levels ~v_lo:0.7 ~v_hi:1.65 7 in
  Test.make_grouped ~name:"dvs"
    [ Test.make ~name:"simplex-40x25"
        (Staged.stage (fun () ->
             ignore (Dvs_lp.Simplex.solve simplex_model)));
      Test.make ~name:"simulate-adpcm-pinned"
        (Staged.stage (fun () ->
             ignore (Dvs_machine.Cpu.run machine cfg ~memory:mem)));
      (* The other two machine kernels: recording a tape (one
         cycle-accurate run plus op capture) and re-costing it. *)
      Test.make ~name:"record-adpcm"
        (Staged.stage (fun () ->
             ignore (Dvs_machine.Summary.create machine cfg ~memory:mem)));
      Test.make ~name:"replay-adpcm-warm"
        (let session = Dvs_machine.Summary.create machine cfg ~memory:mem in
         let edge_mode =
           Array.make (Dvs_machine.Summary.n_edges session) None
         in
         (* Warm the summary cache outside the timed region. *)
         ignore (Dvs_machine.Summary.replay session ~entry_mode:1 ~edge_mode);
         Staged.stage (fun () ->
             ignore
               (Dvs_machine.Summary.replay session ~entry_mode:1 ~edge_mode)));
      (* A whole cold Table-4 job with no store: profiling records the
         program once, and the sweep verifies on that same recording. *)
      Test.make ~name:"profile-sweep-adpcm"
        (Staged.stage (fun () ->
             let profile =
               Dvs_store.Exec.profile
                 ~source:
                   ("adpcm:" ^ Dvs_workloads.Workload.default_input adpcm)
                 machine cfg ~memory:mem
             in
             ignore
               (Dvs_store.Exec.optimize_sweep ~verify_config:machine
                  ~profile machine cfg ~memory:mem
                  ~deadlines:
                    (Dvs_workloads.Deadlines.sweep_of_profile profile))));
      Test.make ~name:"store-warm-mpeg" (store_warm_mpeg store_root);
      Test.make ~name:"milp-pipeline-ghostscript"
        (Staged.stage (fun () ->
             ignore
               (Dvs_core.Pipeline.optimize_multi
                  ~regulator:Dvs_power.Switch_cost.default ~memory:gs_mem
                  [ { Dvs_core.Formulation.profile = gs_profile;
                      weight = 1.0; deadline = gs_deadline } ])));
      Test.make ~name:"milp-unfiltered-gsm"
        ((* Warm the session's summary cache outside the timed region. *)
         ignore (gsm_unfiltered ());
         Staged.stage (fun () -> ignore (gsm_unfiltered ())));
      Test.make ~name:"verify-adpcm-cycle-accurate"
        (let schedule = Dvs_core.Schedule.uniform cfg 1 in
         let session =
           Dvs_core.Verify.Session.create ~cold:true machine cfg ~memory:mem
         in
         Staged.stage (fun () ->
             ignore
               (Dvs_core.Verify.Session.check session ~schedule
                  ~deadline:1.0 ~predicted_energy:1e-6)));
      Test.make ~name:"verify-adpcm-summarized"
        (let schedule = Dvs_core.Schedule.uniform cfg 1 in
         let session =
           Dvs_core.Verify.Session.create machine cfg ~memory:mem
         in
         (* Warm the summary cache outside the timed region: steady
            state is what the deadline sweeps see. *)
         ignore
           (Dvs_core.Verify.Session.check session ~schedule ~deadline:1.0
              ~predicted_energy:1e-6);
         Staged.stage (fun () ->
             ignore
               (Dvs_core.Verify.Session.check session ~schedule
                  ~deadline:1.0 ~predicted_energy:1e-6)));
      Test.make ~name:"simulate-adpcm-ooo"
        (Staged.stage (fun () ->
             ignore (Dvs_machine.Cpu_ooo.run machine cfg ~memory:mem)));
      Test.make ~name:"interp-adpcm"
        (Staged.stage (fun () ->
             ignore (Dvs_ir.Interp.run cfg ~memory:mem)));
      Test.make ~name:"cache-64-accesses"
        (let cache = Dvs_machine.Cache.create Dvs_machine.Config.table2_l1d in
         Staged.stage (fun () ->
             for i = 0 to 63 do
               ignore (Dvs_machine.Cache.access cache (i * 4096))
             done));
      (* The continuous-bound pair: the Liyao kernel answers the same
         root-bounding question one simplex solve of the full relaxation
         does — the gap between these two rows is what sweep pre-pruning
         saves per certified grid point.  The second row is also the LP
         kernel's own benchmark: one cold sparse-LU + eta-file solve of
         the largest Figure-18 root relaxation. *)
      Test.make ~name:"continuous-bound-ghostscript"
        (Staged.stage (fun () ->
             ignore
               (Dvs_core.Relaxation.bound gs_relax
                  ~deadlines_us:gs_deadlines_us)));
      Test.make ~name:"root-lp-ghostscript"
        (Staged.stage (fun () ->
             ignore
               (Dvs_lp.Simplex.solve
                  gs_formulation.Dvs_core.Formulation.model)));
      Test.make ~name:"analytical-discrete-optimize"
        (Staged.stage (fun () ->
             ignore (Dvs_analytical.Discrete.optimize params table7)));
      Test.make ~name:"analytical-continuous-optimize"
        (Staged.stage (fun () ->
             ignore (Dvs_analytical.Continuous.optimize params))) ]

let run () =
  print_endline "\n=== Micro-benchmarks (bechamel, ns per run) ===";
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 1.0) ~kde:None ()
  in
  let store_root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dvs_micro_store_%d" (Unix.getpid ()))
  in
  let raw =
    Fun.protect
      ~finally:(fun () -> remove_store store_root)
      (fun () ->
        Benchmark.all cfg [ Instance.monotonic_clock ] (tests ~store_root))
  in
  let results =
    Analyze.all
      (Analyze.ols ~r_square:true ~bootstrap:0
         ~predictors:[| Measure.run |])
      Instance.monotonic_clock raw
  in
  let rows =
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
    |> List.sort compare
  in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some (est :: _) -> Printf.printf "%-40s %12.0f ns/run\n" name est
      | Some [] | None -> Printf.printf "%-40s (no estimate)\n" name)
    rows
