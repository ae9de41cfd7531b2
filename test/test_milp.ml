open Dvs_lp
open Dvs_milp

let check_float ?(eps = 1e-6) what expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9g, got %.9g" what expected actual

(* The sequential search: one worker. *)
let solve1 m = Solver.solve ~config:(Solver.Config.make ~jobs:1 ()) m

let solve_opt m =
  let r = solve1 m in
  match (r.Solver.outcome, r.Solver.solution) with
  | Solver.Optimal, Some s -> s
  | o, _ -> Alcotest.failf "expected optimal, got %a" Solver.pp_outcome o

(* 0/1 knapsack: values 60,100,120; weights 10,20,30; cap 50 -> 220. *)
let test_knapsack () =
  let m = Model.create () in
  let xs = Array.init 3 (fun _ -> Model.binary m) in
  Model.add_constraint m
    (Expr.of_terms [ (10.0, xs.(0)); (20.0, xs.(1)); (30.0, xs.(2)) ])
    Model.Le 50.0;
  Model.set_objective m Model.Maximize
    (Expr.of_terms [ (60.0, xs.(0)); (100.0, xs.(1)); (120.0, xs.(2)) ]);
  let s = solve_opt m in
  check_float "obj" 220.0 s.objective;
  check_float "x0" 0.0 s.values.(xs.(0));
  check_float "x1" 1.0 s.values.(xs.(1));
  check_float "x2" 1.0 s.values.(xs.(2))

(* Integer (not binary) variables: max x + y, 2x + y <= 7, x + 3y <= 9,
   integers -> check against enumeration (opt obj 5: e.g. x=3,y=1 ->
   2*3+1=7 ok, 3+3=6 ok, obj 4... enumerate in the test). *)
let test_general_integers () =
  let m = Model.create () in
  let x = Model.add_var ~integer:true ~ub:10.0 m in
  let y = Model.add_var ~integer:true ~ub:10.0 m in
  Model.add_constraint m (Expr.of_terms [ (2.0, x); (1.0, y) ]) Model.Le 7.0;
  Model.add_constraint m (Expr.of_terms [ (1.0, x); (3.0, y) ]) Model.Le 9.0;
  Model.set_objective m Model.Maximize (Expr.add (Expr.var x) (Expr.var y));
  let s = solve_opt m in
  let best = ref neg_infinity in
  for xi = 0 to 10 do
    for yi = 0 to 10 do
      let xf = float_of_int xi and yf = float_of_int yi in
      if (2.0 *. xf) +. yf <= 7.0 && xf +. (3.0 *. yf) <= 9.0 then
        best := Float.max !best (xf +. yf)
    done
  done;
  check_float "matches enumeration" !best s.objective

let test_integer_infeasible () =
  (* 0.4 <= x <= 0.6 with x integer. *)
  let m = Model.create () in
  let x = Model.add_var ~integer:true ~lb:0.4 ~ub:0.6 m in
  Model.set_objective m Model.Minimize (Expr.var x);
  let r = solve1 m in
  Alcotest.(check bool) "infeasible" true (r.Solver.outcome = Solver.Infeasible)

let test_unbounded () =
  let m = Model.create () in
  let x = Model.add_var ~integer:true m in
  Model.set_objective m Model.Maximize (Expr.var x);
  let r = solve1 m in
  Alcotest.(check bool) "unbounded" true (r.Solver.outcome = Solver.Unbounded)

(* SOS1-shaped model mimicking the DVS formulation: per group exactly one
   mode on, costs differ, a shared budget constraint. *)
let test_sos1_structure () =
  let groups = 4 and modes = 3 in
  let cost = [| [| 9.0; 4.0; 1.0 |]; [| 8.0; 5.0; 2.0 |];
                [| 7.0; 6.0; 3.0 |]; [| 10.0; 2.0; 1.5 |] |] in
  let time = [| [| 1.0; 2.0; 4.0 |]; [| 1.0; 2.0; 4.0 |];
                [| 1.0; 2.0; 4.0 |]; [| 1.0; 2.0; 4.0 |] |] in
  let budget = 10.0 in
  let m = Model.create () in
  let k = Array.init groups (fun _ -> Array.init modes (fun _ -> Model.binary m)) in
  for g = 0 to groups - 1 do
    Model.add_constraint m
      (Expr.of_terms (List.init modes (fun j -> (1.0, k.(g).(j)))))
      Model.Eq 1.0
  done;
  let all ws =
    Expr.of_terms
      (List.concat_map
         (fun g -> List.init modes (fun j -> (ws.(g).(j), k.(g).(j))))
         (List.init groups Fun.id))
  in
  Model.add_constraint m (all time) Model.Le budget;
  Model.set_objective m Model.Minimize (all cost);
  let s = solve_opt m in
  (* Exhaustive check. *)
  let best = ref infinity in
  let rec enumerate g acc_cost acc_time =
    if g = groups then begin
      if acc_time <= budget then best := Float.min !best acc_cost
    end
    else
      for j = 0 to modes - 1 do
        enumerate (g + 1) (acc_cost +. cost.(g).(j)) (acc_time +. time.(g).(j))
      done
  in
  enumerate 0 0.0 0.0;
  check_float "matches enumeration" !best s.objective;
  (* Every group picks exactly one mode. *)
  for g = 0 to groups - 1 do
    let sum = ref 0.0 in
    for j = 0 to modes - 1 do
      sum := !sum +. s.values.(k.(g).(j))
    done;
    check_float "group convexity" 1.0 !sum
  done

(* Random mixed problems vs exhaustive enumeration of the binaries (the
   continuous part is completed by the LP in both cases). *)
let random_milp_gen =
  QCheck.Gen.(
    let* nbin = int_range 1 6 in
    let* ncont = int_range 0 2 in
    let* mrows = int_range 1 4 in
    let n = nbin + ncont in
    let* c = array_size (return n) (float_range (-5.0) 5.0) in
    let* a = array_size (return (mrows * n)) (float_range (-3.0) 3.0) in
    let* b = array_size (return mrows) (float_range 0.5 6.0) in
    return (nbin, ncont, mrows, c, a, b))

let qcheck_milp_vs_enumeration =
  QCheck.Test.make ~name:"branch&bound matches binary enumeration" ~count:60
    (QCheck.make random_milp_gen)
    (fun (nbin, ncont, mrows, c, a, b) ->
      let n = nbin + ncont in
      let build () =
        let m = Model.create () in
        let vars =
          Array.init n (fun i ->
              if i < nbin then Model.binary m else Model.add_var ~ub:3.0 m)
        in
        for i = 0 to mrows - 1 do
          Model.add_constraint m
            (Expr.of_terms (List.init n (fun j -> (a.((i * n) + j), vars.(j)))))
            Model.Le b.(i)
        done;
        Model.set_objective m Model.Minimize
          (Expr.of_terms (List.init n (fun j -> (c.(j), vars.(j)))));
        (m, vars)
      in
      (* Branch and bound answer. *)
      let m, _ = build () in
      let r = solve1 m in
      (* Enumeration answer: fix binaries, LP-complete. *)
      let best = ref None in
      for mask = 0 to (1 lsl nbin) - 1 do
        let m', vars' = build () in
        for j = 0 to nbin - 1 do
          let v = if mask land (1 lsl j) <> 0 then 1.0 else 0.0 in
          Model.set_bounds m' vars'.(j) ~lb:v ~ub:v
        done;
        match Simplex.solve m' with
        | Simplex.Optimal s -> (
          match !best with
          | Some o when o <= s.objective -> ()
          | _ -> best := Some s.objective)
        | _ -> ()
      done;
      match (r.Solver.outcome, r.Solver.solution, !best) with
      | Solver.Infeasible, _, None -> true
      | Solver.Optimal, Some s, Some o ->
        Float.abs (s.objective -. o) <= 1e-5 *. Float.max 1.0 (Float.abs o)
      | _ -> false)

(* All-binaries feasibility sanity: the incumbent respects integrality. *)
let qcheck_solution_is_integral =
  QCheck.Test.make ~name:"solutions are integral on integer vars" ~count:60
    (QCheck.make random_milp_gen)
    (fun (nbin, ncont, mrows, c, a, b) ->
      let n = nbin + ncont in
      let m = Model.create () in
      let vars =
        Array.init n (fun i ->
            if i < nbin then Model.binary m else Model.add_var ~ub:3.0 m)
      in
      for i = 0 to mrows - 1 do
        Model.add_constraint m
          (Expr.of_terms (List.init n (fun j -> (a.((i * n) + j), vars.(j)))))
          Model.Le b.(i)
      done;
      Model.set_objective m Model.Minimize
        (Expr.of_terms (List.init n (fun j -> (c.(j), vars.(j)))));
      match (solve1 m).Solver.solution with
      | None -> true
      | Some s ->
        List.for_all
          (fun v ->
            let x = s.Simplex.values.(v) in
            Float.abs (x -. Float.round x) <= 1e-6)
          (Model.integer_vars m))

(* --- Solver API: parallelism, determinism, caching -------------------- *)

(* A model big enough that the tree has real depth: SOS1 groups with a
   tight shared budget, as the DVS formulation produces. *)
let sos1_model ~groups ~modes ~budget =
  let m = Model.create () in
  let k =
    Array.init groups (fun _ -> Array.init modes (fun _ -> Model.binary m))
  in
  let cost g j = float_of_int (((g * 7) + (j * 3)) mod 11) +. 1.0 in
  let time g j = float_of_int (modes - j) +. (0.25 *. float_of_int (g mod 3)) in
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
  m

let solve_jobs ?cache jobs m =
  let config = Solver.Config.make ~jobs ?cache () in
  Solver.solve ~config m

let objective_of (r : Solver.result) =
  match (r.Solver.outcome, r.Solver.solution) with
  | Solver.Optimal, Some s -> s.Simplex.objective
  | _ -> Alcotest.fail "expected an optimal solution"

let test_parallel_determinism () =
  let m = sos1_model ~groups:8 ~modes:3 ~budget:26.0 in
  let o1 = objective_of (solve_jobs 1 m) in
  let o4 = objective_of (solve_jobs 4 m) in
  Alcotest.(check bool) "bit-equal objective across jobs" true
    (Int64.bits_of_float o1 = Int64.bits_of_float o4)

let qcheck_parallel_determinism =
  QCheck.Test.make ~name:"jobs=1 and jobs=4 agree on random MILPs" ~count:25
    (QCheck.make random_milp_gen)
    (fun (nbin, ncont, mrows, c, a, b) ->
      let n = nbin + ncont in
      let m = Model.create () in
      let vars =
        Array.init n (fun i ->
            if i < nbin then Model.binary m else Model.add_var ~ub:3.0 m)
      in
      for i = 0 to mrows - 1 do
        Model.add_constraint m
          (Expr.of_terms (List.init n (fun j -> (a.((i * n) + j), vars.(j)))))
          Model.Le b.(i)
      done;
      Model.set_objective m Model.Minimize
        (Expr.of_terms (List.init n (fun j -> (c.(j), vars.(j)))));
      let r1 = solve_jobs 1 m and r4 = solve_jobs 4 m in
      match (r1.Solver.solution, r4.Solver.solution) with
      | Some s1, Some s4 ->
        Int64.bits_of_float s1.Simplex.objective
        = Int64.bits_of_float s4.Simplex.objective
      | None, None -> true
      | _ -> false)

let test_cache_hits () =
  (* Re-solving the same model through a shared cache must answer its
     root relaxation from memory. *)
  let m = sos1_model ~groups:6 ~modes:3 ~budget:20.0 in
  let cache = Lp_cache.create () in
  let r1 = solve_jobs ~cache 1 m in
  let r2 = solve_jobs ~cache 1 m in
  Alcotest.(check bool) "first solve misses" true
    (r1.Solver.stats.Solver.cache_misses > 0);
  Alcotest.(check bool) "second solve hits" true
    (r2.Solver.stats.Solver.cache_hits > 0);
  Alcotest.(check bool) "cached objective unchanged" true
    (Int64.bits_of_float (objective_of r1)
    = Int64.bits_of_float (objective_of r2))

let test_stats_accounting () =
  let m = sos1_model ~groups:6 ~modes:3 ~budget:20.0 in
  let r = solve_jobs 2 m in
  let st = r.Solver.stats in
  Alcotest.(check int) "workers" 2 st.Solver.workers;
  Alcotest.(check int) "worker_nodes length" 2
    (Array.length st.Solver.worker_nodes);
  Alcotest.(check int) "worker_nodes sums to nodes" st.Solver.nodes
    (Array.fold_left ( + ) 0 st.Solver.worker_nodes);
  Alcotest.(check bool) "lp accounting" true
    (st.Solver.lp_solves > 0 && st.Solver.lp_pivots > 0);
  let u = Solver.worker_utilization st in
  Alcotest.(check bool) "utilization in [0,1]" true (u >= 0.0 && u <= 1.0)

(* Regression: max x + y s.t. 2x + 2y <= 7, x and y integer in [0, 10].
   The relaxation's optimum (3.5) forces branching on the same variable
   twice down one path; the true optimum is x + y = 3. *)
let test_rebranching () =
  let m = Model.create () in
  let x = Model.add_var ~integer:true ~lb:0.0 ~ub:10.0 m in
  let y = Model.add_var ~integer:true ~lb:0.0 ~ub:10.0 m in
  Model.add_constraint m
    Expr.(add (scale 2.0 (var x)) (scale 2.0 (var y)))
    Model.Le 7.0;
  Model.set_objective m Model.Maximize Expr.(add (var x) (var y));
  List.iter
    (fun jobs ->
      let config = Solver.Config.make ~jobs ~max_nodes:10_000 () in
      check_float
        (Printf.sprintf "objective at jobs=%d" jobs)
        3.0
        (objective_of (Solver.solve ~config m)))
    [ 1; 4 ]

let test_config_validation () =
  Alcotest.check_raises "jobs must be >= 1"
    (Invalid_argument "Solver.Config.make: jobs must be >= 1") (fun () ->
      ignore (Solver.Config.make ~jobs:0 ()))

(* --- Presolve/postsolve property: reductions never change the answer --- *)

(* DVS-shaped instance from a seed: SOS1 mode groups, a shared budget
   row, distinct fractional costs (so the optimum is unique and schedules
   are comparable mode for mode).  Returns the model, its mode variables
   per group, and the cost, time and budget data they were built from. *)
let seeded_dvs_milp seed =
  let module Rng = Dvs_workloads.Rng in
  let rng = Rng.create seed in
  let groups = 3 + Rng.int rng 4 (* 3..6 *)
  and modes = 2 + Rng.int rng 2 (* 2..3 *) in
  let m = Model.create () in
  let k =
    Array.init groups (fun _ -> Array.init modes (fun _ -> Model.binary m))
  in
  let cost =
    Array.init groups (fun _ ->
        Array.init modes (fun _ ->
            1.0 +. (float_of_int (Rng.int rng 100_000) /. 97.0)))
  in
  let time =
    Array.init groups (fun g ->
        Array.init modes (fun j ->
            float_of_int (modes - j)
            +. (float_of_int (Rng.int rng 100) /. 400.0)
            +. (0.25 *. float_of_int (g mod 3))))
  in
  for g = 0 to groups - 1 do
    Model.add_constraint m
      (Expr.of_terms (List.init modes (fun j -> (1.0, k.(g).(j)))))
      Model.Eq 1.0
  done;
  let sum_by pick =
    Array.to_list time
    |> List.fold_left (fun acc row -> acc +. pick row) 0.0
  in
  let tmin = sum_by (Array.fold_left Float.min infinity)
  and tmax = sum_by (Array.fold_left Float.max neg_infinity) in
  (* Tight enough that slow modes get excluded, loose enough to stay
     feasible: presolve's GUB pass has real work on every seed. *)
  let budget =
    tmin
    +. ((tmax -. tmin)
        *. (0.15 +. (float_of_int (Rng.int rng 60) /. 100.0)))
  in
  let all w =
    Expr.of_terms
      (List.concat_map
         (fun g -> List.init modes (fun j -> (w.(g).(j), k.(g).(j))))
         (List.init groups Fun.id))
  in
  Model.add_constraint m (all time) Model.Le budget;
  Model.set_objective m Model.Minimize (all cost);
  (m, k, cost, time, budget)

let test_presolve_equivalence () =
  for seed = 1 to 50 do
    let m, k, _, _, _ = seeded_dvs_milp seed in
    let sos1 = List.map Array.to_list (Array.to_list k) in
    let solve ~presolve ~jobs =
      let config =
        Solver.Config.make ~jobs ~presolve () |> Solver.Config.with_sos1 sos1
      in
      Solver.solve ~config m
    in
    let reference = solve ~presolve:false ~jobs:1 in
    List.iter
      (fun (presolve, jobs) ->
        let r = solve ~presolve ~jobs in
        if r.Solver.outcome <> reference.Solver.outcome then
          Alcotest.failf "seed %d presolve=%b jobs=%d: outcome %a vs %a" seed
            presolve jobs Solver.pp_outcome r.Solver.outcome
            Solver.pp_outcome reference.Solver.outcome;
        match (reference.Solver.solution, r.Solver.solution) with
        | None, None -> ()
        | Some s0, Some s ->
          let o0 = s0.Simplex.objective and o = s.Simplex.objective in
          if Float.abs (o -. o0) > 1e-9 *. Float.max 1.0 (Float.abs o0) then
            Alcotest.failf "seed %d presolve=%b jobs=%d: obj %.15g vs %.15g"
              seed presolve jobs o o0;
          (* Unique optimum by construction: the chosen schedule must be
             identical, and postsolve must deliver it in the original
             (unreduced) variable space. *)
          List.iteri
            (fun g group ->
              List.iteri
                (fun j v ->
                  let x0 = Float.round s0.Simplex.values.(v)
                  and x = Float.round s.Simplex.values.(v) in
                  if x0 <> x then
                    Alcotest.failf
                      "seed %d presolve=%b jobs=%d: group %d mode %d \
                       differs (%g vs %g)"
                      seed presolve jobs g j x x0)
                group)
            sos1
        | _ ->
          Alcotest.failf "seed %d presolve=%b jobs=%d: solution presence \
                          differs" seed presolve jobs)
      [ (true, 1); (true, 4); (false, 4) ]
  done

(* Rounding runs from the basis of every fractional node.  adpcm's
   Table-4 model at its fourth deadline (the resilience experiment's
   fault-free cell) has its integer optimum at a depth-1 node whose
   warm-started LP lands on a fractional vertex of the optimal face;
   rounding there closes the tree, which otherwise takes 8 nodes. *)
let test_rounding_closes_adpcm_d4 () =
  let open Dvs_workloads in
  let w = Workload.find "adpcm" in
  let cfg, _, memory = Workload.load w ~input:(Workload.default_input w) in
  let p = Dvs_profile.Profile.collect (Workload.eval_config ()) cfg ~memory in
  let deadline = (Deadlines.of_profile p).(3) in
  (* The experiment's regulator: the paper's 10 uF over its 25x time
     scale, computed as it does (0.4e-6 differs in the last bit, and
     gives a different tree). *)
  let regulator =
    Dvs_power.Switch_cost.regulator ~capacitance:(10e-6 /. 25.0) ()
  in
  let config =
    Dvs_core.Pipeline.Config.make ~solver:(Solver.Config.make ~jobs:1 ()) ()
  in
  let r =
    Dvs_core.Pipeline.optimize_multi ~config
      ~verify_config:(Workload.eval_config ~regulator ())
      ~regulator ~memory
      [ { Dvs_core.Formulation.profile = p; weight = 1.0; deadline } ]
  in
  let milp = r.Dvs_core.Pipeline.milp in
  (match milp.Solver.outcome with
  | Solver.Optimal -> ()
  | o -> Alcotest.failf "adpcm D4: %a" Solver.pp_outcome o);
  let nodes = milp.Solver.stats.Solver.nodes in
  if nodes > 3 then Alcotest.failf "adpcm D4 took %d nodes, not <= 3" nodes

let suite =
  [ Alcotest.test_case "knapsack" `Quick test_knapsack;
    Alcotest.test_case "general integers" `Quick test_general_integers;
    Alcotest.test_case "integer infeasible" `Quick test_integer_infeasible;
    Alcotest.test_case "unbounded" `Quick test_unbounded;
    Alcotest.test_case "sos1 structure" `Quick test_sos1_structure;
    Alcotest.test_case "parallel determinism" `Quick
      test_parallel_determinism;
    Alcotest.test_case "cache hits on repeat solve" `Quick test_cache_hits;
    Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "presolve/postsolve equivalence over 50 seeds" `Quick
      test_presolve_equivalence;
    QCheck_alcotest.to_alcotest qcheck_milp_vs_enumeration;
    QCheck_alcotest.to_alcotest qcheck_solution_is_integral;
    QCheck_alcotest.to_alcotest qcheck_parallel_determinism;
    Alcotest.test_case "re-branching on one variable" `Quick test_rebranching;
    Alcotest.test_case "rounding closes adpcm D4 in <= 3 nodes" `Quick
      test_rounding_closes_adpcm_d4 ]
