(* Bechamel micro-benchmarks of the core engines: the MILP stack (one
   representative DVS formulation solve), the raw simplex, the three
   machine kernels (cycle-level simulation, tape recording, tape replay),
   and the analytical optimizer.  These are the
   performance numbers behind the Figure 14/18 solve-time claims. *)

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

let tests () =
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
      Test.make ~name:"milp-pipeline-ghostscript"
        (Staged.stage (fun () ->
             ignore
               (Dvs_core.Pipeline.optimize_multi
                  ~regulator:Dvs_power.Switch_cost.default ~memory:gs_mem
                  [ { Dvs_core.Formulation.profile = gs_profile;
                      weight = 1.0; deadline = gs_deadline } ])));
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
         saves per certified grid point. *)
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
      (* The basis-backend pair: the same root relaxation of the largest
         Figure-18 instance solved pivot-for-pivot identically by both
         backends — every pivot runs one FTRAN, one BTRAN and one
         pivot-row price, so the gap between these two rows is exactly
         the dense-inverse vs sparse-LU+eta linear-algebra cost. *)
      Test.make ~name:"lp-basis-lu-ghostscript"
        (Staged.stage (fun () ->
             ignore
               (Dvs_lp.Simplex.solve ~backend:Dvs_lp.Simplex.Lu
                  gs_formulation.Dvs_core.Formulation.model)));
      Test.make ~name:"lp-basis-dense-ghostscript"
        (Staged.stage (fun () ->
             ignore
               (Dvs_lp.Simplex.solve ~backend:Dvs_lp.Simplex.Dense
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
  let raw =
    Benchmark.all cfg [ Instance.monotonic_clock ] (tests ())
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
