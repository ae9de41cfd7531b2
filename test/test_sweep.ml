(* Deadline-sweep engine suite: the sweep must be a pure accelerator —
   per-point objectives and schedules identical to independent cold
   solves, at any worker/instance count, with or without injected
   faults — and every cut it separates must be a valid inequality for
   the integer feasible set it is tagged for. *)

module Solver = Dvs_milp.Solver
module Sweep = Dvs_milp.Sweep
module Cuts = Dvs_milp.Cuts
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

(* --- Cut validity ------------------------------------------------------ *)

(* Sample a random integer-feasible point: one mode per group, resampled
   until the deadline row is satisfied. *)
let feasible_point rng ~k ~time ~deadline ~num_vars =
  let groups = Array.length k and modes = Array.length k.(0) in
  let rec attempt tries =
    if tries = 0 then None
    else begin
      let x = Array.make num_vars 0.0 in
      let span = ref 0.0 in
      for g = 0 to groups - 1 do
        let j = Random.State.int rng modes in
        x.(k.(g).(j)) <- 1.0;
        span := !span +. time.(g).(j)
      done;
      if !span <= deadline then Some x else attempt (tries - 1)
    end
  in
  attempt 200

(* Every cut the sweep separates must hold at 100 random integer-feasible
   points of every deadline it claims validity for. *)
let test_cut_validity () =
  let rng = Random.State.make [| 0xc07; 5 |] in
  let checked = ref 0 in
  for seed = 0 to 4 do
    let m, k, deadline_row, time = sweep_model ~seed ~groups:5 ~modes:3 in
    let deadlines = deadline_grid ~time ~points:4 in
    let pool = Cuts.Pool.create () in
    let cfg = config ~jobs:1 ~k in
    ignore (Sweep.run ~config:cfg ~pool ~model:m ~deadline_row ~deadlines ());
    let cuts = Cuts.Pool.applicable pool ~deadline:neg_infinity in
    let num_vars = Model.num_vars m in
    Array.iter
      (fun d ->
        let live =
          List.filter (fun (c : Cuts.t) -> d <= c.Cuts.valid_le) cuts
        in
        if live <> [] then
          for _ = 1 to 100 do
            match feasible_point rng ~k ~time ~deadline:d ~num_vars with
            | None -> ()
            | Some x ->
                List.iter
                  (fun (c : Cuts.t) ->
                    if not (Cuts.satisfied c x) then
                      Alcotest.failf
                        "seed %d: cut %a cuts off a feasible point at \
                         deadline %.4f"
                        seed Cuts.pp c d
                    else incr checked)
                  live
          done)
      deadlines
  done;
  if !checked = 0 then
    Alcotest.fail "cut validity test exercised no cuts — separation is dead"

(* The pool must dedup structurally identical cuts and report reuse. *)
let test_pool_dedup_and_reuse () =
  let m, k, deadline_row, time = sweep_model ~seed:2 ~groups:5 ~modes:3 in
  let deadlines = deadline_grid ~time ~points:4 in
  let pool = Cuts.Pool.create () in
  let cfg = config ~jobs:1 ~k in
  let first =
    Sweep.run ~config:cfg ~pool ~model:m ~deadline_row ~deadlines ()
  in
  let size_after_first = Cuts.Pool.size pool in
  (* Second sweep with separation off: pooled cuts are applied but no
     new ones can appear, so reuse is isolated from rediscovery. *)
  let second =
    Sweep.run ~config:cfg ~cut_rounds:0 ~pool ~model:m ~deadline_row
      ~deadlines ()
  in
  Alcotest.(check int) "separation off: pool unchanged" size_after_first
    (Cuts.Pool.size pool);
  if size_after_first > 0 && second.Sweep.stats.Sweep.cut_pool_hits = 0 then
    Alcotest.fail "expected pooled cuts to be reused on the second sweep";
  ignore first

(* The root cutting loop's LP solves and tableaux are charged to
   [lp.flops] on the sweep's own registry, on top of what each point's
   solve charges.  Here every point's solve reports to a second registry
   (through [per_point]), so the first holds the root loops' work alone.
   A one-point sweep's loop starts with the point's cold root LP and the
   tableau of its optimal basis, which the test recomputes.  At the
   loosest deadline that LP is integral, nothing separates, and the loop
   charges exactly those two. *)
let test_root_flops_charged () =
  let m, k, deadline_row, time = sweep_model ~seed:4 ~groups:6 ~modes:3 in
  let flops obs =
    Dvs_obs.Metrics.Counter.value
      (Dvs_obs.Metrics.counter (Dvs_obs.metrics obs) ~stability:Volatile
         "lp.flops")
  in
  let run ~cut_rounds d =
    let root = Dvs_obs.metrics_only () and solves = Dvs_obs.metrics_only () in
    let cfg = config ~jobs:1 ~k |> Solver.Config.with_obs root in
    let sw =
      Sweep.run ~config:cfg ~cut_rounds
        ~per_point:(fun _ _ c -> Solver.Config.with_obs solves c)
        ~model:m ~deadline_row ~deadlines:[| d |] ()
    in
    if flops solves <= 0 then Alcotest.fail "point solve charged no flops";
    (sw.Sweep.stats, flops root)
  in
  let first_round d =
    let c0 = Dvs_lp.Compiled.scratch (Dvs_lp.Compiled.of_model m) in
    Dvs_lp.Compiled.set_rhs c0 deadline_row d;
    match Simplex.solve_compiled c0 with
    | Simplex.Optimal _, Some b, ls -> (
        match Simplex.tableau c0 b with
        | Some tab ->
            let tf = Simplex.tableau_flops tab in
            if tf <= 0 then Alcotest.fail "tableau charged no flops";
            ls.Simplex.flops + tf
        | None -> Alcotest.fail "root basis gave no tableau")
    | _ -> Alcotest.fail "root LP did not solve to a basis"
  in
  let loosest = (List.nth (Model.constraints m) deadline_row).Model.rhs in
  let st, root = run ~cut_rounds:3 loosest in
  Alcotest.(check int) "loosest: nothing separates" 0 st.Sweep.cuts_separated;
  Alcotest.(check int) "loosest: root LP + tableau" (first_round loosest) root;
  let tight = (deadline_grid ~time ~points:3).(1) in
  let st, root = run ~cut_rounds:3 tight in
  if st.Sweep.cuts_separated = 0 then
    Alcotest.fail "tight: no cuts separated, the loop ran one round only";
  if root <= first_round tight then
    Alcotest.failf "tight: root loop charged %d flops, not above its first \
                    round's LP and tableau (%d)"
      root (first_round tight);
  let st, root = run ~cut_rounds:0 tight in
  Alcotest.(check int) "cut_rounds 0: root loop charges nothing" 0 root;
  Alcotest.(check int) "cut_rounds 0: no root pivots" 0 st.Sweep.root_pivots

let suite =
  [
    Alcotest.test_case "sweep matches cold solves (25 seeds)" `Slow
      test_sweep_matches_cold;
    Alcotest.test_case "warm incumbent lifting" `Quick
      test_sweep_warm_lifting;
    Alcotest.test_case "crash injection leaves objectives exact" `Quick
      test_sweep_under_crashes;
    Alcotest.test_case "separated cuts valid on feasible points" `Slow
      test_cut_validity;
    Alcotest.test_case "cut pool dedups and reuses" `Quick
      test_pool_dedup_and_reuse;
    Alcotest.test_case "root loop flops charged to lp.flops" `Quick
      test_root_flops_charged;
  ]
