(* Direct unit tests of the MILP formulation (the paper's core): on a
   tiny CFG with a hand-constructed profile, the solved objective must
   equal the best value of an explicit enumeration of every mode
   assignment using the paper's formulas. *)

open Dvs_ir
open Dvs_core

(* CFG: entry -> loop head -> (body -> head)* -> exit. *)
let cfg =
  let b = Cfg.Builder.create () in
  let entry = Cfg.Builder.add_block ~name:"entry" b in
  let head = Cfg.Builder.add_block ~name:"head" b in
  let body = Cfg.Builder.add_block ~name:"body" b in
  let exit_b = Cfg.Builder.add_block ~name:"exit" b in
  Cfg.Builder.push b entry (Instr.Li (0, 1));
  Cfg.Builder.set_term b entry (Cfg.Jump head);
  Cfg.Builder.push b head (Instr.Li (1, 0));
  (* Branch on the freshly zeroed register: the functional dummy run
     falls straight to the exit; the loop trip counts live only in the
     hand-made profile. *)
  Cfg.Builder.set_term b head (Cfg.Branch (1, body, exit_b));
  Cfg.Builder.push b body (Instr.Li (2, 0));
  Cfg.Builder.set_term b body (Cfg.Jump head);
  Cfg.Builder.push b exit_b (Instr.Li (3, 0));
  Cfg.Builder.set_term b exit_b Cfg.Halt;
  Cfg.Builder.finish b ~entry

let machine = Dvs_workloads.Workload.eval_config ()

(* The sequential search: one worker. *)
let solve1 m =
  Dvs_milp.Solver.solve ~config:(Dvs_milp.Solver.Config.make ~jobs:1 ()) m

let n_modes = 3

(* Hand-made per-block per-invocation costs: block i at mode m.  The
   body is "memory bound" (time barely changes with mode). *)
let block_time m j =
  let f = (Dvs_power.Mode.get machine.Dvs_machine.Config.mode_table m).frequency in
  match j with
  | 0 -> 100.0 /. f (* entry: 100 cycles *)
  | 1 -> 20.0 /. f (* head *)
  | 2 -> 50.0 /. f +. 2e-6 (* body: 50 cycles + 2us of memory *)
  | _ -> 30.0 /. f

let block_energy m j =
  let v = (Dvs_power.Mode.get machine.Dvs_machine.Config.mode_table m).voltage in
  let cycles = match j with 0 -> 100.0 | 1 -> 20.0 | 2 -> 50.0 | _ -> 30.0 in
  cycles *. 0.5e-9 *. v *. v

let iterations = 40

(* Build a synthetic profile for the loop executing [iterations] times. *)
let profile =
  let n_blocks = Cfg.num_blocks cfg in
  let exec_count = [| 1; iterations + 1; iterations; 1 |] in
  let edges = Cfg.edges cfg in
  let edge_count =
    Array.map
      (fun (e : Cfg.edge) ->
        match (e.src, e.dst) with
        | 0, 1 -> 1
        | 1, 2 -> iterations
        | 2, 1 -> iterations
        | 1, 3 -> 1
        | _ -> 0)
      edges
  in
  let paths =
    [ ({ Dvs_profile.Profile.pred = None; node = 0; succ = 1 }, 1);
      ({ Dvs_profile.Profile.pred = Some 0; node = 1; succ = 2 }, 1);
      ({ Dvs_profile.Profile.pred = Some 2; node = 1; succ = 2 },
       iterations - 1);
      ({ Dvs_profile.Profile.pred = Some 2; node = 1; succ = 3 }, 1);
      ({ Dvs_profile.Profile.pred = Some 1; node = 2; succ = 1 }, iterations)
    ]
  in
  let total_time =
    Array.init n_modes (fun m ->
        Array.init n_blocks (fun j ->
            float_of_int exec_count.(j) *. block_time m j))
  in
  let total_energy =
    Array.init n_modes (fun m ->
        Array.init n_blocks (fun j ->
            float_of_int exec_count.(j) *. block_energy m j))
  in
  (* Pinned runs only feed baselines, which this test does not use; a
     minimal real run keeps the record well-formed. *)
  let dummy_run = Dvs_machine.Cpu.run machine cfg ~memory:[||] in
  { Dvs_profile.Profile.cfg; config = machine; exec_count; edge_count;
    entry_count = 1; paths; total_time; total_energy;
    runs = Array.make n_modes dummy_run;
    recording = Dvs_profile.Profile.no_recording (); fingerprint = None }

let regulator = Dvs_power.Switch_cost.regulator ~capacitance:0.05e-6 ()

(* Paper formulas, computed directly for a full mode assignment
   (edge id -> mode; id = n_edges is the virtual entry edge). *)
let assignment_cost assign =
  let edges = Cfg.edges cfg in
  let n_edges = Array.length edges in
  let dst id = if id = n_edges then Cfg.entry cfg else edges.(id).Cfg.dst in
  let g id =
    if id = n_edges then 1 else profile.Dvs_profile.Profile.edge_count.(id)
  in
  let energy = ref 0.0 and time = ref 0.0 in
  for id = 0 to n_edges do
    let m = assign id in
    let j = dst id in
    energy := !energy +. (float_of_int (g id) *. block_energy m j);
    time := !time +. (float_of_int (g id) *. block_time m j)
  done;
  let edge_index_of src dst' =
    Cfg.edge_index cfg { Cfg.src = src; dst = dst' }
  in
  List.iter
    (fun ((p : Dvs_profile.Profile.path), count) ->
      let in_id =
        match p.Dvs_profile.Profile.pred with
        | None -> n_edges
        | Some h -> edge_index_of h p.Dvs_profile.Profile.node
      in
      let out_id =
        edge_index_of p.Dvs_profile.Profile.node p.Dvs_profile.Profile.succ
      in
      let v_of id =
        (Dvs_power.Mode.get machine.Dvs_machine.Config.mode_table (assign id))
          .voltage
      in
      energy :=
        !energy
        +. (float_of_int count
           *. Dvs_power.Switch_cost.energy regulator (v_of in_id)
                (v_of out_id));
      time :=
        !time
        +. (float_of_int count
           *. Dvs_power.Switch_cost.time regulator (v_of in_id) (v_of out_id)))
    profile.Dvs_profile.Profile.paths;
  (!energy, !time)

let brute_force deadline =
  let edges = Cfg.edges cfg in
  let n_edges = Array.length edges in
  let n_vars = n_edges + 1 in
  let best = ref infinity in
  let assign = Array.make n_vars 0 in
  let rec go i =
    if i = n_vars then begin
      let e, t = assignment_cost (fun id -> assign.(id)) in
      if t <= deadline *. (1.0 +. 1e-9) && e < !best then best := e
    end
    else
      for m = 0 to n_modes - 1 do
        assign.(i) <- m;
        go (i + 1)
      done
  in
  go 0;
  !best

let solve_milp deadline =
  let f =
    Formulation.build ~regulator
      [ { Formulation.profile; weight = 1.0; deadline } ]
  in
  match (solve1 f.Formulation.model).Dvs_milp.Solver.solution with
  | Some s -> Some (s.Dvs_lp.Simplex.objective /. 1e6)
  | None -> None

let check_deadline d =
  match solve_milp d with
  | None ->
    let bf = brute_force d in
    Alcotest.(check bool)
      (Printf.sprintf "both infeasible at %.3gms" (d *. 1e3))
      true
      (bf = infinity)
  | Some milp ->
    let bf = brute_force d in
    if Float.abs (milp -. bf) > 1e-6 *. Float.max 1.0 bf then
      Alcotest.failf "deadline %.4gms: MILP %.9g vs brute force %.9g"
        (d *. 1e3) milp bf

let test_matches_brute_force () =
  (* Sweep deadlines from just-feasible to lax.  At the fastest mode:
     time = (100 + 20*41 + 50*40 + 30)/800e6 + 40*2e-6 = ~83.7us. *)
  List.iter check_deadline
    [ 84e-6; 90e-6; 100e-6; 120e-6; 150e-6; 200e-6; 300e-6; 500e-6 ]

let test_infeasible_matches () = check_deadline 50e-6

let test_transition_costs_matter () =
  (* With very expensive transitions the optimum must be a uniform
     assignment; verify via the brute force restricted to uniform. *)
  let expensive = Dvs_power.Switch_cost.regulator ~capacitance:100e-6 () in
  let d = 200e-6 in
  let f =
    Formulation.build ~regulator:expensive
      [ { Formulation.profile; weight = 1.0; deadline = d } ]
  in
  match (solve1 f.Formulation.model).Dvs_milp.Solver.solution with
  | None -> Alcotest.fail "no solution"
  | Some s ->
    let sched = Schedule.of_solution f s in
    Alcotest.(check int) "uniform schedule" 1
      (List.length (Schedule.distinct_modes sched))

let suite =
  [ Alcotest.test_case "MILP matches brute force over deadlines" `Quick
      test_matches_brute_force;
    Alcotest.test_case "infeasibility agrees" `Quick test_infeasible_matches;
    Alcotest.test_case "expensive transitions force uniform" `Quick
      test_transition_costs_matter ]

(* Section 4.3: the weighted multi-category objective, checked against
   enumeration.  A second synthetic "input" doubles the loop trip count
   and gets its own (laxer) deadline. *)
let profile2 =
  let iterations2 = 2 * iterations in
  let n_blocks = Cfg.num_blocks cfg in
  let exec_count = [| 1; iterations2 + 1; iterations2; 1 |] in
  let edges = Cfg.edges cfg in
  let edge_count =
    Array.map
      (fun (e : Cfg.edge) ->
        match (e.src, e.dst) with
        | 0, 1 -> 1
        | 1, 2 -> iterations2
        | 2, 1 -> iterations2
        | 1, 3 -> 1
        | _ -> 0)
      edges
  in
  let paths =
    [ ({ Dvs_profile.Profile.pred = None; node = 0; succ = 1 }, 1);
      ({ Dvs_profile.Profile.pred = Some 0; node = 1; succ = 2 }, 1);
      ({ Dvs_profile.Profile.pred = Some 2; node = 1; succ = 2 },
       iterations2 - 1);
      ({ Dvs_profile.Profile.pred = Some 2; node = 1; succ = 3 }, 1);
      ({ Dvs_profile.Profile.pred = Some 1; node = 2; succ = 1 },
       iterations2) ]
  in
  { profile with
    Dvs_profile.Profile.exec_count; edge_count; paths;
    total_time =
      Array.init n_modes (fun m ->
          Array.init n_blocks (fun j ->
              float_of_int exec_count.(j) *. block_time m j));
    total_energy =
      Array.init n_modes (fun m ->
          Array.init n_blocks (fun j ->
              float_of_int exec_count.(j) *. block_energy m j)) }

(* Enumerate assignments against the weighted objective with both
   deadline constraints. *)
let assignment_cost_for prof assign =
  let edges = Cfg.edges cfg in
  let n_edges = Array.length edges in
  let dst id = if id = n_edges then Cfg.entry cfg else edges.(id).Cfg.dst in
  let g id =
    if id = n_edges then 1 else prof.Dvs_profile.Profile.edge_count.(id)
  in
  let energy = ref 0.0 and time = ref 0.0 in
  for id = 0 to n_edges do
    let m = assign id in
    let j = dst id in
    energy := !energy +. (float_of_int (g id) *. block_energy m j);
    time := !time +. (float_of_int (g id) *. block_time m j)
  done;
  List.iter
    (fun ((p : Dvs_profile.Profile.path), count) ->
      let in_id =
        match p.Dvs_profile.Profile.pred with
        | None -> n_edges
        | Some h -> Cfg.edge_index cfg { Cfg.src = h; dst = p.Dvs_profile.Profile.node }
      in
      let out_id =
        Cfg.edge_index cfg
          { Cfg.src = p.Dvs_profile.Profile.node;
            dst = p.Dvs_profile.Profile.succ }
      in
      let v_of id =
        (Dvs_power.Mode.get machine.Dvs_machine.Config.mode_table (assign id))
          .voltage
      in
      energy :=
        !energy
        +. (float_of_int count
           *. Dvs_power.Switch_cost.energy regulator (v_of in_id) (v_of out_id));
      time :=
        !time
        +. (float_of_int count
           *. Dvs_power.Switch_cost.time regulator (v_of in_id) (v_of out_id)))
    prof.Dvs_profile.Profile.paths;
  (!energy, !time)

let test_multi_category_matches_brute_force () =
  let w1 = 0.7 and w2 = 0.3 in
  let d1 = 150e-6 and d2 = 260e-6 in
  let f =
    Formulation.build ~regulator
      [ { Formulation.profile; weight = w1; deadline = d1 };
        { Formulation.profile = profile2; weight = w2; deadline = d2 } ]
  in
  let milp =
    match (solve1 f.Formulation.model).Dvs_milp.Solver.solution with
    | Some s -> s.Dvs_lp.Simplex.objective /. 1e6
    | None -> Alcotest.fail "multi-category MILP found nothing"
  in
  let edges = Cfg.edges cfg in
  let n_vars = Array.length edges + 1 in
  let best = ref infinity in
  let assign = Array.make n_vars 0 in
  let rec go i =
    if i = n_vars then begin
      let e1, t1 = assignment_cost_for profile (fun id -> assign.(id)) in
      let e2, t2 = assignment_cost_for profile2 (fun id -> assign.(id)) in
      if t1 <= d1 *. (1.0 +. 1e-9) && t2 <= d2 *. (1.0 +. 1e-9) then begin
        let obj = (w1 *. e1) +. (w2 *. e2) in
        if obj < !best then best := obj
      end
    end
    else
      for m = 0 to n_modes - 1 do
        assign.(i) <- m;
        go (i + 1)
      done
  in
  go 0;
  if Float.abs (milp -. !best) > 1e-6 *. Float.max 1.0 !best then
    Alcotest.failf "multi-category: MILP %.9g vs brute force %.9g" milp !best

let suite =
  suite
  @ [ Alcotest.test_case "multi-category matches brute force" `Quick
        test_multi_category_matches_brute_force ]
