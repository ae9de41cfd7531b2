(* The LP kernel against its dense oracle.

   Simplex is Simplex.Make (Lu_eta): a sparse LU + eta-file basis.  The
   oracle instantiates the same kernel over an explicit dense inverse
   (Dense_basis).  Both share every pricing and ratio-test decision and
   each finishes on the factor it holds, so they must be
   indistinguishable in everything but linear-algebra cost and rounding:
   same statuses, same objectives, and on generic data nearly always the
   same pivot counts.  Values are not compared (alternate optima); every
   optimal LU solution is checked feasible instead.  The MILP layer
   above is checked against brute-force enumeration. *)

open Dvs_lp
module Solver = Dvs_milp.Solver
module Rng = Dvs_workloads.Rng
module Dense = Simplex.Make (Dense_basis)

(* ---- seeded LP instances ------------------------------------------- *)

let tol b = 1e-9 *. (1.0 +. Float.abs b)

(* [x] meets every row of [m] to within 1e-9 x (1 + |rhs|). *)
let check_rows ~what m (s : Simplex.solution) =
  let x = s.Simplex.values in
  List.iteri
    (fun i (r : Model.constr) ->
      let a = Expr.eval (fun v -> x.(v)) r.Model.expr in
      let viol =
        match r.Model.cmp with
        | Model.Le -> a -. r.Model.rhs
        | Model.Ge -> r.Model.rhs -. a
        | Model.Eq -> Float.abs (a -. r.Model.rhs)
      in
      if viol > tol r.Model.rhs then
        Alcotest.failf "%s: row %d violated by %.3g (activity %.17g, rhs %g)"
          what i viol a r.Model.rhs)
    (Model.constraints m)

(* ... and every bound in [lb]/[ub] to within 1e-9 x (1 + |bound|). *)
let check_feasible ~what m ~lb ~ub (s : Simplex.solution) =
  Array.iteri
    (fun j v ->
      if v < lb.(j) -. tol lb.(j) || v > ub.(j) +. tol ub.(j) then
        Alcotest.failf "%s: x%d = %.17g outside [%g, %g]" what j v lb.(j)
          ub.(j))
    s.Simplex.values;
  check_rows ~what m s

let model_bounds m =
  let n = Model.num_vars m in
  ( Array.init n (fun v -> fst (Model.bounds m v)),
    Array.init n (fun v -> snd (Model.bounds m v)) )

(* Random sparse LP built around a known feasible point, sized so the
   basis actually cycles through refactorizations: 12..30 vars, 8..20
   rows, ~1/3 fill, a mix of Le and Ge rows (Ge forces phase-1 work).
   All data is generic (fractional, no repeated values), so the
   instances carry no exact degenerate ties — on tied ratio tests the
   two backends' last-ulp residual differences could legitimately break
   a tie differently and the pivot sequences would diverge; on generic
   data they must coincide exactly. *)
let seeded_lp seed =
  let rng = Rng.create seed in
  let frac lo hi =
    lo +. ((hi -. lo) *. (float_of_int (Rng.int rng 99_991) /. 99991.0))
  in
  let n = 12 + Rng.int rng 19 and rows = 8 + Rng.int rng 13 in
  let m = Model.create () in
  let vars = Array.init n (fun _ -> Model.add_var ~ub:6.0 m) in
  let x0 = Array.init n (fun _ -> frac 0.0 3.0) in
  for _ = 1 to rows do
    let terms = ref [] in
    for j = 0 to n - 1 do
      if Rng.int rng 3 = 0 then
        terms := (frac (-4.0) 4.0, vars.(j)) :: !terms
    done;
    let terms =
      match !terms with [] -> [ (1.0, vars.(0)) ] | ts -> ts
    in
    let lhs0 =
      List.fold_left (fun acc (c, v) -> acc +. (c *. x0.(v))) 0.0 terms
    in
    (* Slack keeps x0 feasible for either sense. *)
    if Rng.int rng 4 = 0 then
      Model.add_constraint m (Expr.of_terms terms) Model.Ge
        (lhs0 -. frac 0.5 3.0)
    else
      Model.add_constraint m (Expr.of_terms terms) Model.Le
        (lhs0 +. frac 0.5 3.0)
  done;
  Model.set_objective m Model.Minimize
    (Expr.of_terms (List.init n (fun j -> (frac (-4.0) 4.0, vars.(j)))));
  m

let solve_both m =
  let c = Compiled.of_model m in
  (Simplex.solve_compiled c, Dense.solve_compiled c)

let check_objective ~what (a : Simplex.solution) (b : Simplex.solution) =
  let oa = a.Simplex.objective and ob = b.Simplex.objective in
  if Float.abs (oa -. ob) > 1e-9 *. Float.max 1.0 (Float.abs ob) then
    Alcotest.failf "%s: objective %.15g vs %.15g" what oa ob

(* Same status and same objective to 1e-9 on every seed; same pivot
   count on (nearly) every seed.  Pivot-for-pivot identity between two
   different factorizations is not a sound floating-point invariant:
   near a degenerate vertex the backends' last-ulp residual differences
   can break a ratio-test tie differently and the sequences diverge to
   an alternate optimum of the same objective.  That happens on 2 of
   these 25 fixed seeds; the bound below catches any systematic
   divergence (a pricing or solve bug perturbs most seeds, not two)
   without enshrining ulp behavior.  Values are not compared entry-wise
   for the same reason. *)
let test_lp_backends_agree () =
  let diverged = ref 0 in
  for seed = 1 to 25 do
    let m = seeded_lp seed in
    let (st_lu, _, stats_lu), (st_de, _, stats_de) = solve_both m in
    if stats_lu.Simplex.pivots <> stats_de.Simplex.pivots then
      incr diverged;
    match (st_lu, st_de) with
    | Simplex.Optimal a, Simplex.Optimal b ->
      let what = Printf.sprintf "seed %d lu-vs-dense" seed in
      check_objective ~what a b;
      let lb, ub = model_bounds m in
      check_feasible ~what m ~lb ~ub a
    | Simplex.Infeasible, Simplex.Infeasible
    | Simplex.Unbounded, Simplex.Unbounded ->
      ()
    | a, b ->
      Alcotest.failf "seed %d: status %a (lu) vs %a (dense)" seed
        Simplex.pp_status a Simplex.pp_status b
  done;
  if !diverged > 5 then
    Alcotest.failf
      "pivot sequences diverged on %d/25 seeds — backends are not \
       retracing each other's steps"
      !diverged

(* Refactorization cadence changes linear-algebra bookkeeping (and its
   roundoff), never the answer: the LU basis rebuilt after every pivot,
   every 7 pivots, and on an eta-fill trigger capped at 1 pivot or at a
   growth of 0.01 must reach the default cadence's status and
   objective. *)
let cadences : (string * (module Basis.S)) list =
  [ ( "every pivot",
      (module struct
        include Lu_eta

        let needs_refactor t = updates t >= 1
      end) );
    ( "every 7 pivots",
      (module struct
        include Lu_eta

        let needs_refactor t = updates t >= 7
      end) );
    ( "eta fill, 1 pivot",
      (module struct
        include Lu_eta

        let needs_refactor = eta_fill_due ~max_updates:1 ~growth:2.0
      end) );
    ( "eta fill, growth 0.01",
      (module struct
        include Lu_eta

        let needs_refactor = eta_fill_due ~max_updates:256 ~growth:0.01
      end) ) ]

let test_refactor_policy_equivalent () =
  for seed = 1 to 5 do
    let m = seeded_lp seed in
    let reference, _, _ = Simplex.solve_compiled (Compiled.of_model m) in
    List.iter
      (fun (name, b) ->
        let module S = Simplex.Make ((val b : Basis.S)) in
        let st, _, _ = S.solve_compiled (Compiled.of_model m) in
        match (reference, st) with
        | Simplex.Optimal r, Simplex.Optimal a ->
          check_objective ~what:(Printf.sprintf "seed %d (%s)" seed name) r a
        | Simplex.Infeasible, Simplex.Infeasible
        | Simplex.Unbounded, Simplex.Unbounded ->
          ()
        | _ -> Alcotest.failf "seed %d: status drift under %s" seed name)
      cadences
  done

(* The LU basis actually does sparse work: on a model with plenty of
   rows the dense oracle's per-pivot m^2 updates must cost measurably
   more charged flops than factorization + eta updates. *)
let test_lu_saves_flops () =
  let m = seeded_lp 3 in
  let (_, _, s_lu), (_, _, s_de) = solve_both m in
  if s_lu.Simplex.lu_refactorizations < 1 then
    Alcotest.fail "LU basis built no factorization";
  if s_lu.Simplex.flops >= s_de.Simplex.flops then
    Alcotest.failf "LU flops %d not below dense flops %d"
      s_lu.Simplex.flops s_de.Simplex.flops

(* ---- singular / near-singular warm hints --------------------------- *)

(* Basis from a well-conditioned model applied to a same-shape model
   whose corresponding basis matrix is singular (duplicate columns):
   both bases must detect the singularity, fall back to a cold solve,
   and still return the optimum. *)
let singular_pair scale =
  let build c10 c11 obj_y =
    let m = Model.create () in
    let x = Model.add_var m and y = Model.add_var m in
    Model.add_constraint m
      (Expr.of_terms [ (1.0, x); (c10, y) ])
      Model.Le 4.0;
    Model.add_constraint m
      (Expr.of_terms [ (3.0, x); (c11, y) ])
      Model.Le 5.0;
    Model.set_objective m Model.Maximize
      (Expr.of_terms [ (1.0, x); (obj_y, y) ]);
    m
  in
  (* A's optimum sits at the intersection: both x and y basic. *)
  let a = build 2.0 1.0 1.0 in
  (* B duplicates column x (up to [scale] of an exact copy), so A's
     {x, y}-basic basis is singular or numerically so on B. *)
  let b = build 1.0 scale 0.5 in
  (a, b)

let test_singular_hint_falls_back scale () =
  let a, b = singular_pair scale in
  let basis =
    match Simplex.solve_compiled (Compiled.of_model a) with
    | Simplex.Optimal _, Some basis, _ -> basis
    | _ -> Alcotest.fail "model A must solve with both vars basic"
  in
  List.iter
    (fun (module S : Simplex.S) ->
      let cold =
        match S.solve b with
        | Simplex.Optimal s -> s
        | st ->
          Alcotest.failf "cold solve of B: %a" Simplex.pp_status st
      in
      match S.solve_compiled ~basis (Compiled.of_model b) with
      | Simplex.Optimal warm, _, _ ->
        if
          Float.abs (warm.Simplex.objective -. cold.Simplex.objective)
          > 1e-9
        then
          Alcotest.failf "fallback objective %.12g vs cold %.12g"
            warm.Simplex.objective cold.Simplex.objective
      | st, _, _ ->
        Alcotest.failf "singular hint must fall back to optimal, got %a"
          Simplex.pp_status st)
    [ (module Simplex : Simplex.S); (module Dense) ]

(* ---- MILP against enumeration ------------------------------------- *)

(* Cheapest one-mode-per-group assignment within the budget, over all
   modes^groups of them (at most 3^6).  The budget test carries a 1e-9
   relative tolerance, the LP's own feasibility slack: grid data can put
   an assignment's time exactly on the budget. *)
let enumerate ~cost ~time ~budget =
  let groups = Array.length cost and modes = Array.length cost.(0) in
  let pick = Array.make groups 0 in
  let best = ref None in
  let rec go g c t =
    if g = groups then begin
      if t <= budget +. (1e-9 *. Float.max 1.0 budget) then
        match !best with
        | Some (bc, _) when bc <= c -> ()
        | _ -> best := Some (c, Array.copy pick)
    end
    else
      for j = 0 to modes - 1 do
        pick.(g) <- j;
        go (g + 1) (c +. cost.(g).(j)) (t +. time.(g).(j))
      done
  in
  go 0 0.0 0.0;
  !best

(* Solver and enumeration are two MILP backends: on the seeded DVS
   instances of the presolve property, at jobs 1 and 4, the solver must
   return enumeration's objective and, mode for mode, its schedule. *)
let test_milp_backends_agree () =
  for seed = 1 to 25 do
    let m, k, cost, time, budget = Test_milp.seeded_dvs_milp seed in
    let sos1 = List.map Array.to_list (Array.to_list k) in
    let expected = enumerate ~cost ~time ~budget in
    List.iter
      (fun jobs ->
        let what = Printf.sprintf "seed %d jobs %d" seed jobs in
        let config =
          Solver.Config.make ~jobs () |> Solver.Config.with_sos1 sos1
        in
        let r = Solver.solve ~config m in
        match (expected, r.Solver.outcome, r.Solver.solution) with
        | None, Solver.Infeasible, None -> ()
        | Some (obj, pick), Solver.Optimal, Some s ->
          let got = s.Simplex.objective in
          if Float.abs (got -. obj) > 1e-9 *. Float.max 1.0 (Float.abs obj)
          then
            Alcotest.failf "%s: objective %.15g vs enumerated %.15g" what
              got obj;
          Array.iteri
            (fun g vars ->
              Array.iteri
                (fun j v ->
                  let x = Float.round s.Simplex.values.(v)
                  and want = if pick.(g) = j then 1.0 else 0.0 in
                  if x <> want then
                    Alcotest.failf
                      "%s: group %d mode %d is %g, enumeration says %g" what
                      g j x want)
                vars)
            k
        | _ ->
          Alcotest.failf "%s: outcome %a, enumeration %s" what
            Solver.pp_outcome r.Solver.outcome
            (if expected = None then "infeasible" else "feasible"))
      [ 1; 4 ]
  done

(* ---- real models ---------------------------------------------------- *)

(* A paper program's Table-4 model at grid deadline [d] (0 is the
   tightest, [loosest] the loosest), prepared exactly as the pipeline
   solves it. *)
let table4_model ?(filter = true) name d =
  let regulator = Dvs_power.Switch_cost.regulator ~capacitance:0.4e-6 () in
  let machine = Dvs_workloads.Workload.eval_config ~regulator () in
  let w = Dvs_workloads.Workload.find name in
  let cfg, _, mem =
    Dvs_workloads.Workload.load w
      ~input:(Dvs_workloads.Workload.default_input w)
  in
  let p = Dvs_profile.Profile.collect machine cfg ~memory:mem in
  let ds = Dvs_workloads.Deadlines.of_profile p in
  let prep =
    Dvs_core.Pipeline.prepare
      ~config:(Dvs_core.Pipeline.Config.make ~filter ())
      ~regulator
      [ { Dvs_core.Formulation.profile = p; weight = 1.0; deadline = ds.(d) } ]
  in
  prep.Dvs_core.Pipeline.prep_formulation.Dvs_core.Formulation.model

let loosest = Array.length Dvs_workloads.Deadlines.fractions - 1

let programs = [ "adpcm"; "epic"; "gsm"; "mpeg"; "ghostscript"; "mpg123" ]

(* The paper's six programs, each prepared exactly as the Table-4
   pipeline solves it (edge filter on) at its tightest and loosest grid
   deadline.  On each, the root LP and then a seeded chain of warm
   starts — one binary fixed per step, hinted with the previous step's
   basis, an infeasible fixing undone — must give the LU kernel and the
   dense oracle the same status and objective at every step. *)
let test_real_model_oracle () =
  List.iter
    (fun name ->
      List.iter
        (fun d ->
          let model = table4_model name d in
          let c = Compiled.of_model model in
          let binaries = Array.of_list (Model.integer_vars model) in
          let rng = Rng.create (Hashtbl.hash (name, d)) in
          let ws_lu = Simplex.workspace () and ws_de = Dense.workspace () in
          let check step (st_lu, _, _) (st_de, _, _) =
            let what = Printf.sprintf "%s deadline %d step %d" name d step in
            match (st_lu, st_de) with
            | Simplex.Optimal a, Simplex.Optimal b ->
              check_objective ~what a b;
              let n = c.Compiled.n in
              check_feasible ~what model
                ~lb:(Array.sub c.Compiled.lb 0 n)
                ~ub:(Array.sub c.Compiled.ub 0 n) a
            | Simplex.Infeasible, Simplex.Infeasible
            | Simplex.Unbounded, Simplex.Unbounded ->
              ()
            | a, b ->
              Alcotest.failf "%s: %a (lu) vs %a (dense)" what
                Simplex.pp_status a Simplex.pp_status b
          in
          let lu = Simplex.solve_compiled ~ws:ws_lu c
          and de = Dense.solve_compiled ~ws:ws_de c in
          check 0 lu de;
          let rec chain step ((st, b_lu, _) as lu) ((_, b_de, _) as de) =
            if step <= 10 && Array.length binaries > 0 then begin
              let v = binaries.(Rng.int rng (Array.length binaries)) in
              let x =
                match st with
                | Simplex.Optimal s when Rng.int rng 4 > 0 ->
                  Float.round s.Simplex.values.(v)
                | _ -> float_of_int (Rng.int rng 2)
              in
              let lb, ub = (c.Compiled.lb.(v), c.Compiled.ub.(v)) in
              Compiled.set_bounds c v ~lb:x ~ub:x;
              let lu' = Simplex.solve_compiled ?basis:b_lu ~ws:ws_lu c
              and de' = Dense.solve_compiled ?basis:b_de ~ws:ws_de c in
              check step lu' de';
              match lu' with
              | Simplex.Optimal _, Some _, _ -> chain (step + 1) lu' de'
              | _ ->
                Compiled.set_bounds c v ~lb ~ub;
                chain (step + 1) lu de
            end
          in
          chain 1 lu de)
        [ 0; loosest ])
    programs

(* The workspace holds no m x m array: after adpcm's unfiltered Table-4
   root LP (234 rows) it is smaller than one such array would be. *)
let test_workspace_below_m_squared () =
  let c = Compiled.of_model (table4_model ~filter:false "adpcm" 0) in
  let m = c.Compiled.m in
  Alcotest.(check int) "adpcm unfiltered rows" 234 m;
  let ws = Simplex.workspace () in
  (match Simplex.solve_compiled ~ws c with
  | Simplex.Optimal _, _, _ -> ()
  | st, _, _ -> Alcotest.failf "root LP: %a" Simplex.pp_status st);
  let words = Obj.reachable_words (Obj.repr ws) in
  if words >= m * m then
    Alcotest.failf "workspace holds %d words, not below m^2 = %d" words
      (m * m)

(* ---- the residual guard ---------------------------------------------- *)

(* A Lu_eta whose FTRAN errs by 1e-7 relative, the sign alternating by
   component, whenever its eta file is nonempty: a held factor that has
   drifted.  A fresh factorization solves exactly. *)
module Drifting = struct
  include Lu_eta

  let ftran t x =
    Lu_eta.ftran t x;
    if updates t > 0 then
      Array.iteri
        (fun i v ->
          x.(i) <- v *. if i land 1 = 0 then 1.0 +. 1e-7 else 1.0 -. 1e-7)
        x
end

(* On the drifting factor the finish's residual check must fire, and
   every optimum returned must still meet its rows to 1e-9 x (1 + |rhs|):
   the 25 seeded LPs cold, and warm chains (one binary fixed per step)
   on two programs' Table-4 models. *)
let test_residual_guard () =
  let module S = Simplex.Make (Drifting) in
  let fired = ref 0 and worst = ref 0.0 in
  let solve ~what ?basis ~ws m c =
    let ((st, _, stats) as r) = S.solve_compiled ?basis ~ws c in
    fired := !fired + stats.Simplex.residual_refactors;
    worst := Float.max !worst stats.Simplex.residual_max;
    (match st with Simplex.Optimal s -> check_rows ~what m s | _ -> ());
    r
  in
  for seed = 1 to 25 do
    let m = seeded_lp seed in
    ignore
      (solve ~what:(Printf.sprintf "seed %d" seed) ~ws:(S.workspace ()) m
         (Compiled.of_model m))
  done;
  List.iter
    (fun name ->
      let model = table4_model name 0 in
      let c = Compiled.of_model model in
      let ws = S.workspace () in
      let binaries = Array.of_list (Model.integer_vars model) in
      let rng = Rng.create (Hashtbl.hash name) in
      let what step = Printf.sprintf "%s step %d" name step in
      let rec chain step b =
        if step <= 10 && Array.length binaries > 0 then begin
          let v = binaries.(Rng.int rng (Array.length binaries)) in
          let x = float_of_int (Rng.int rng 2) in
          let lb, ub = (c.Compiled.lb.(v), c.Compiled.ub.(v)) in
          Compiled.set_bounds c v ~lb:x ~ub:x;
          match solve ~what:(what step) ?basis:b ~ws model c with
          | Simplex.Optimal _, Some b', _ -> chain (step + 1) (Some b')
          | _ ->
            Compiled.set_bounds c v ~lb ~ub;
            chain (step + 1) b
        end
      in
      let _, b, _ = solve ~what:(what 0) ~ws model c in
      chain 1 b)
    [ "adpcm"; "gsm" ];
  if !fired = 0 then
    Alcotest.failf "residual guard never fired on a drifting factor (worst %g)"
      !worst

(* ---- pinned factors --------------------------------------------------- *)

(* The pinned etas survive later factorizations: pin a factor holding
   two updates, factor another matrix and update it twice, restore, and
   FTRAN answers bit for bit as before the pin. *)
let check_pinned_prefix () =
  let t = Lu_eta.create () in
  let factor d =
    if
      not
        (Lu_eta.factor t ~m:3 ~ptr:[| 0; 1; 2; 3 |] ~row:[| 0; 1; 2 |]
           ~vals:[| d; d; d |])
    then Alcotest.fail "diagonal basis reported singular"
  in
  let solve () =
    let x = [| 1.0; -2.0; 3.0 |] in
    Lu_eta.ftran t x;
    x
  in
  factor 2.0;
  Lu_eta.update t ~r:0 ~w:[| 0.5; 0.25; 0.125 |];
  Lu_eta.update t ~r:2 ~w:[| 0.1; 0.2; 0.4 |];
  let before = solve () in
  Lu_eta.pin t;
  factor 5.0;
  Lu_eta.update t ~r:1 ~w:[| 0.3; 0.6; 0.9 |];
  Lu_eta.update t ~r:0 ~w:[| 0.7; 0.1; 0.2 |];
  Alcotest.(check bool) "restore" true (Lu_eta.restore t);
  Alcotest.(check int) "restored updates" 2 (Lu_eta.updates t);
  Alcotest.(check (array (float 0.0))) "FTRAN on the restored factor" before
    (solve ());
  Lu_eta.unpin t;
  Alcotest.(check bool) "restore after unpin" false (Lu_eta.restore t)

(* Refactorization every 3 pivots: probes refactor mid-solve while the
   root's factor stays pinned. *)
module Every3 = Simplex.Make (struct
  include Lu_eta

  let needs_refactor = eta_fill_due ~max_updates:3 ~growth:2.0
end)

(* A restored factor answers like a fresh one.  On each program's
   filtered Table-4 model at its tightest and loosest deadline, and
   adpcm's unfiltered one: solve the root pinned, then run the probe
   pattern from its basis (one binary fixed to 0, then to 1, 100-pivot
   cap) on up to three binaries fractional at the root (the first
   binaries when the root is integral).  Each probe
   restores the pinned factor, must not trip the residual check, and
   must give the status and objective (to 1e-9 relative) of the same
   solve in an unpinned workspace.  A hint on another compiled matrix,
   or one given after [unpin], factors; a scratch view of the same
   matrix restores. *)
let test_restored_factor_like_fresh () =
  check_pinned_prefix ();
  let cases =
    List.concat_map
      (fun name -> [ (name, true, 0); (name, true, loosest) ])
      programs
    @ [ ("adpcm", false, 0) ]
  in
  List.iter
    (fun (kernel, (module K : Simplex.S)) ->
      List.iter
        (fun (name, filter, d) ->
          let what =
            Printf.sprintf "%s filter=%b deadline %d (%s)" name filter d
              kernel
          in
          let model = table4_model ~filter name d in
          let c = Compiled.of_model model in
          let ws = K.workspace () and unpinned = K.workspace () in
          let root, b =
            match K.solve_compiled ~ws ~pin:true c with
            | Simplex.Optimal s, Some b, _ -> (s, b)
            | st, _, _ -> Alcotest.failf "%s: root %a" what Simplex.pp_status st
          in
          let fractional =
            List.filter
              (fun v ->
                let x = root.Simplex.values.(v) in
                Float.abs (x -. Float.round x) > 1e-6)
              (Model.integer_vars model)
          in
          let probed =
            List.filteri (fun i _ -> i < 3)
              (if fractional = [] then Model.integer_vars model
               else fractional)
          in
          let restores (st : Simplex.stats) = st.Simplex.lu_restores in
          List.iter
            (fun v ->
              List.iter
                (fun x ->
                  let what = Printf.sprintf "%s x%d = %g" what v x in
                  let lb, ub = (c.Compiled.lb.(v), c.Compiled.ub.(v)) in
                  Compiled.set_bounds c v ~lb:x ~ub:x;
                  let st_p, _, sp =
                    K.solve_compiled ~max_iter:100 ~basis:b ~ws c
                  in
                  let st_f, _, sf =
                    K.solve_compiled ~max_iter:100 ~basis:b ~ws:unpinned c
                  in
                  Compiled.set_bounds c v ~lb ~ub;
                  if restores sp <> 1 || restores sf <> 0 then
                    Alcotest.failf "%s: restores %d pinned, %d unpinned" what
                      (restores sp) (restores sf);
                  if sp.Simplex.residual_refactors <> 0 then
                    Alcotest.failf "%s: restored factor off by %g" what
                      sp.Simplex.residual_max;
                  match (st_p, st_f) with
                  | Simplex.Optimal a, Simplex.Optimal f ->
                    check_objective ~what a f
                  | Simplex.Infeasible, Simplex.Infeasible
                  | Simplex.Iter_limit _, Simplex.Iter_limit _ ->
                    ()
                  | a, f ->
                    Alcotest.failf "%s: %a (restored) vs %a (fresh)" what
                      Simplex.pp_status a Simplex.pp_status f)
                [ 0.0; 1.0 ])
            probed;
          let factored ~what' (_, _, (st : Simplex.stats)) =
            if restores st <> 0 || st.Simplex.lu_refactorizations < 1 then
              Alcotest.failf "%s: %s restored instead of factoring" what what'
          in
          factored ~what':"another compiled matrix"
            (K.solve_compiled ~basis:b ~ws (Compiled.of_model model));
          (match K.solve_compiled ~basis:b ~ws (Compiled.scratch c) with
          | _, _, st when restores st = 1 -> ()
          | _ -> Alcotest.failf "%s: a scratch view did not restore" what);
          K.unpin ws;
          factored ~what':"a hint after unpin"
            (K.solve_compiled ~basis:b ~ws c))
        cases)
    [ ("default cadence", (module Simplex : Simplex.S));
      ("every 3 pivots", (module Every3)) ]

let suite =
  [ Alcotest.test_case "LP backends agree over 25 seeds" `Quick
      test_lp_backends_agree;
    Alcotest.test_case "refactor policy never changes the answer" `Quick
      test_refactor_policy_equivalent;
    Alcotest.test_case "LU charges fewer flops than dense" `Quick
      test_lu_saves_flops;
    Alcotest.test_case "singular warm hint falls back" `Quick
      (test_singular_hint_falls_back 1.0);
    Alcotest.test_case "near-singular warm hint falls back" `Quick
      (test_singular_hint_falls_back (1.0 +. 1e-13));
    Alcotest.test_case "MILP backends agree over 25 seeds x jobs {1,4}"
      `Quick test_milp_backends_agree;
    Alcotest.test_case "LU = dense on six programs' warm LP chains" `Quick
      test_real_model_oracle;
    Alcotest.test_case "workspace below m^2 words on adpcm unfiltered"
      `Quick test_workspace_below_m_squared;
    Alcotest.test_case "residual guard refactors a drifting factor" `Quick
      test_residual_guard;
    Alcotest.test_case "restored factor answers like a fresh one" `Quick
      test_restored_factor_like_fresh ]
