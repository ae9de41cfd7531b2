(* Deadline-sweep engine suite: the sweep must be a pure accelerator —
   per-point objectives and schedules identical to independent cold
   solves, at any worker count, with or without injected faults — and
   every LP it runs must be one of its points' solves. *)

module Solver = Dvs_milp.Solver
module Sweep = Dvs_milp.Sweep
module Fault = Dvs_milp.Fault
module Model = Dvs_lp.Model
module Expr = Dvs_lp.Expr
module Simplex = Dvs_lp.Simplex

let jobs_list =
  match Sys.getenv_opt "DVS_FAULT_JOBS" with
  | Some s -> [ int_of_string (String.trim s) ]
  | None -> [ 1; 4 ]

let check_float ?(eps = 1e-6) what expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9g, got %.9g" what expected actual

(* Seeded SOS1-under-deadline model in the DVS formulation's shape, with
   generic (noise-perturbed) costs so the optimum is unique and schedule
   comparisons are meaningful.  Returns the model, the mode binaries,
   the deadline row's insertion-order index and the per-mode times. *)
let sweep_model ~seed ~groups ~modes =
  let rng = Random.State.make [| 0x5eed; seed |] in
  let m = Model.create () in
  let k =
    Array.init groups (fun _ -> Array.init modes (fun _ -> Model.binary m))
  in
  let noise () = Random.State.float rng 0.01 in
  let cost =
    Array.init groups (fun g ->
        Array.init modes (fun j ->
            float_of_int (((g * 7) + (j * 3)) mod 11) +. 1.0 +. noise ()))
  in
  let time =
    Array.init groups (fun g ->
        Array.init modes (fun j ->
            float_of_int (modes - j)
            +. (0.25 *. float_of_int (g mod 3))
            +. noise ()))
  in
  for g = 0 to groups - 1 do
    Model.add_constraint m
      (Expr.of_terms (List.init modes (fun j -> (1.0, k.(g).(j)))))
      Model.Eq 1.0
  done;
  let all w =
    Expr.of_terms
      (List.concat_map
         (fun g -> List.init modes (fun j -> (w.(g).(j), k.(g).(j))))
         (List.init groups Fun.id))
  in
  let t_max =
    Array.fold_left
      (fun acc row -> acc +. Array.fold_left Float.max neg_infinity row)
      0.0 time
  in
  Model.add_constraint m ~name:"deadline" (all time) Model.Le t_max;
  Model.set_objective m Model.Minimize (all cost);
  let deadline_row = groups in
  (m, k, deadline_row, time)

let sos1_groups k = Array.to_list (Array.map Array.to_list k)

(* A grid of feasible deadlines from just above the all-fastest schedule
   (tightest) up to near the all-slowest one (loosest). *)
let deadline_grid ~time ~points =
  let fold f init =
    Array.fold_left
      (fun acc row -> f acc (Array.fold_left f init row))
      init time
  in
  let t_min = Array.fold_left (fun acc row ->
      acc +. Array.fold_left Float.min infinity row) 0.0 time
  and t_max = Array.fold_left (fun acc row ->
      acc +. Array.fold_left Float.max neg_infinity row) 0.0 time
  in
  ignore (fold : (float -> float -> float) -> float -> float);
  let lo = t_min *. 1.02 and hi = t_max *. 0.92 in
  Array.init points (fun i ->
      lo +. ((hi -. lo) *. float_of_int i /. float_of_int (max 1 (points - 1))))

let objective_exn what (r : Solver.result) =
  match r.Solver.solution with
  | Some s -> s.Simplex.objective
  | None ->
      Alcotest.failf "%s: no solution (outcome %a)" what Solver.pp_outcome
        r.Solver.outcome

let rounded_schedule (r : Solver.result) k =
  match r.Solver.solution with
  | None -> Alcotest.fail "no solution to round"
  | Some s ->
      Array.map
        (fun group ->
          Array.map (fun v -> int_of_float (Float.round s.Simplex.values.(v)))
            group)
        k

(* Objective of a rounded schedule evaluated exactly on the model — the
   raw LP objective of the same integer point can carry ~1e-9 float fuzz
   from basic binaries sitting at 0.9999999998, so the 1e-9 equality
   claim is made on the model evaluation. *)
let schedule_objective m k schedule =
  let x = Array.make (Model.num_vars m) 0.0 in
  Array.iteri
    (fun g group ->
      Array.iteri (fun j v -> x.(v) <- float_of_int schedule.(g).(j)) group)
    k;
  let _, obj = Model.objective m in
  Expr.eval (fun v -> x.(v)) obj

let config ~jobs ~k =
  Solver.Config.make ~jobs ()
  |> Solver.Config.with_sos1 (sos1_groups k)

let cold_solve ~jobs ~k model deadline_row d =
  let mp = Model.copy model in
  Model.set_constraint_rhs mp deadline_row d;
  Solver.solve ~config:(config ~jobs ~k) mp

(* --- Sweep vs independent cold solves --------------------------------- *)

(* The core equivalence property (25 seeds, jobs=1 and jobs=4): every
   sweep point's objective matches an independent cold solve to 1e-9 and
   the rounded mode schedules are identical. *)
let test_sweep_matches_cold () =
  List.iter
    (fun jobs ->
      for seed = 0 to 24 do
        let m, k, deadline_row, time =
          sweep_model ~seed ~groups:4 ~modes:3
        in
        let deadlines = deadline_grid ~time ~points:4 in
        let cfg = config ~jobs ~k in
        let sw =
          Sweep.run ~config:cfg ~model:m ~deadline_row ~deadlines ()
        in
        Array.iteri
          (fun i (p : Sweep.point) ->
            let d = deadlines.(i) in
            check_float ~eps:1e-9 "sweep point deadline" d p.Sweep.deadline;
            let cold = cold_solve ~jobs ~k m deadline_row d in
            let what =
              Printf.sprintf "seed %d jobs %d deadline %.3f" seed jobs d
            in
            check_float ~eps:1e-6 what
              (objective_exn what cold)
              (objective_exn what p.Sweep.result);
            let sched_sweep = rounded_schedule p.Sweep.result k
            and sched_cold = rounded_schedule cold k in
            if sched_sweep <> sched_cold then
              Alcotest.failf "%s: schedules differ" what;
            check_float ~eps:1e-9 (what ^ " (rounded objective)")
              (schedule_objective m k sched_cold)
              (schedule_objective m k sched_sweep))
          sw.Sweep.points
      done)
    jobs_list

(* Tightest-first lifting: every point after the tightest should start
   from a lifted incumbent, and the counter must agree. *)
let test_sweep_warm_lifting () =
  let m, k, deadline_row, time = sweep_model ~seed:3 ~groups:4 ~modes:3 in
  let deadlines = deadline_grid ~time ~points:5 in
  let sw =
    Sweep.run ~config:(config ~jobs:1 ~k) ~model:m ~deadline_row ~deadlines ()
  in
  let lifted =
    Array.to_list sw.Sweep.points
    |> List.filter (fun p -> p.Sweep.warm_started)
    |> List.length
  in
  Alcotest.(check int) "instances_warm_started agrees" lifted
    sw.Sweep.stats.Sweep.instances_warm_started;
  if lifted < Array.length deadlines - 1 then
    Alcotest.failf "expected %d lifted points, got %d"
      (Array.length deadlines - 1)
      lifted

(* Crash injection: with every point warm-seeded at its known optimum a
   crashed worker can only lose subtrees, never the incumbent, so the
   sweep's objectives must equal the clean cold ones exactly.  The grid
   is loose enough that the unconstrained optimum is feasible at every
   point, which makes the sweep's own incumbent lifting optimal too. *)
let test_sweep_under_crashes () =
  List.iter
    (fun jobs ->
      let m, k, deadline_row, time = sweep_model ~seed:11 ~groups:4 ~modes:3 in
      let loose = deadline_grid ~time ~points:2 in
      let unconstrained =
        cold_solve ~jobs:1 ~k m deadline_row loose.(Array.length loose - 1)
      in
      let sol =
        match unconstrained.Solver.solution with
        | Some s -> s
        | None -> Alcotest.fail "unconstrained solve failed"
      in
      let span =
        Array.to_list k
        |> List.concat_map Array.to_list
        |> List.fold_left
             (fun acc v ->
               acc
               +. (Float.round sol.Simplex.values.(v)
                  *. Expr.coeff
                       (List.nth (Model.constraints m) deadline_row).Model.expr
                       v))
             0.0
      in
      let deadlines = [| span *. 1.001; span *. 1.05; span *. 1.2 |] in
      let optimum =
        Array.to_list k
        |> List.concat_map Array.to_list
        |> List.map (fun v -> (v, Float.round sol.Simplex.values.(v)))
      in
      let cfg =
        config ~jobs ~k
        |> Solver.Config.with_fault (Fault.make ~crash_every:1 ())
      in
      let sw =
        Sweep.run ~config:cfg
          ~per_point:(fun _ _ c -> Solver.Config.with_warm_start optimum c)
          ~model:m ~deadline_row ~deadlines ()
      in
      Array.iteri
        (fun i (p : Sweep.point) ->
          let what = Printf.sprintf "crash sweep jobs %d point %d" jobs i in
          (match p.Sweep.result.Solver.outcome with
          | Solver.Degraded d when d.Solver.crashes <> [] -> ()
          | o ->
              Alcotest.failf "%s: expected crashes, got %a" what
                Solver.pp_outcome o);
          check_float ~eps:0.0 what sol.Simplex.objective
            (objective_exn what p.Sweep.result))
        sw.Sweep.points)
    jobs_list

(* --- LP accounting ------------------------------------------------------ *)

(* Every LP a sweep runs is one of its points' solves.  Each point's
   solve reports to its own registry (through [per_point]), so the sweep
   config's registry holds the sweep's own work alone: no LP solve and
   no [lp.flops] there, while every point's registry counts its solves
   and the points together count flops (after presolve the tightest
   point's LP has nothing to do). *)
let test_no_lp_outside_points () =
  let m, k, deadline_row, time = sweep_model ~seed:4 ~groups:6 ~modes:3 in
  let deadlines = deadline_grid ~time ~points:4 in
  let counter obs name =
    Dvs_obs.Metrics.Counter.value
      (Dvs_obs.Metrics.counter (Dvs_obs.metrics obs) ~stability:Volatile name)
  in
  let sweep_obs = Dvs_obs.metrics_only () in
  let point_obs = Array.map (fun _ -> Dvs_obs.metrics_only ()) deadlines in
  let sw =
    Sweep.run
      ~config:(config ~jobs:1 ~k |> Solver.Config.with_obs sweep_obs)
      ~per_point:(fun i _ c -> Solver.Config.with_obs point_obs.(i) c)
      ~model:m ~deadline_row ~deadlines ()
  in
  Alcotest.(check int) "sweep registry: sweep.points"
    (Array.length deadlines)
    (counter sweep_obs "sweep.points");
  Alcotest.(check int) "sweep registry: lp.flops" 0
    (counter sweep_obs "lp.flops");
  Alcotest.(check int) "sweep registry: solver.lp_solves" 0
    (counter sweep_obs "solver.lp_solves");
  Array.iteri
    (fun i obs ->
      let what = Printf.sprintf "point %d" i in
      let solves = counter obs "solver.lp_solves" in
      if solves <= 0 then Alcotest.failf "%s: no LP solve counted" what;
      Alcotest.(check int) (what ^ ": lp_solves = its result's") solves
        sw.Sweep.points.(i).Sweep.result.Solver.stats.Solver.lp_solves)
    point_obs;
  if Array.for_all (fun obs -> counter obs "lp.flops" = 0) point_obs then
    Alcotest.fail "the points' solves charged no lp.flops"

let suite =
  [
    Alcotest.test_case "sweep matches cold solves (25 seeds)" `Slow
      test_sweep_matches_cold;
    Alcotest.test_case "warm incumbent lifting" `Quick
      test_sweep_warm_lifting;
    Alcotest.test_case "crash injection leaves objectives exact" `Quick
      test_sweep_under_crashes;
    Alcotest.test_case "a sweep runs no LP outside its points' solves" `Quick
      test_no_lp_outside_points;
  ]
