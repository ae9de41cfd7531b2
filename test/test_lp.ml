open Dvs_lp

let check_float ?(eps = 1e-6) what expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9g, got %.9g" what expected actual

let solve_opt m =
  match Simplex.solve m with
  | Simplex.Optimal s -> s
  | st -> Alcotest.failf "expected optimal, got %a" Simplex.pp_status st

(* max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (classic; opt = 36 at
   (2,6)). *)
let test_dantzig_example () =
  let m = Model.create () in
  let x = Model.add_var ~name:"x" m and y = Model.add_var ~name:"y" m in
  Model.add_constraint m (Expr.var x) Model.Le 4.0;
  Model.add_constraint m (Expr.term 2.0 y) Model.Le 12.0;
  Model.add_constraint m
    (Expr.of_terms [ (3.0, x); (2.0, y) ])
    Model.Le 18.0;
  Model.set_objective m Model.Maximize
    (Expr.of_terms [ (3.0, x); (5.0, y) ]);
  let s = solve_opt m in
  check_float "obj" 36.0 s.objective;
  check_float "x" 2.0 s.values.(x);
  check_float "y" 6.0 s.values.(y)

(* min x + y s.t. x + 2y >= 6, 3x + y >= 9, opt at intersection (2.4, 1.8),
   obj 4.2. *)
let test_ge_constraints () =
  let m = Model.create () in
  let x = Model.add_var m and y = Model.add_var m in
  Model.add_constraint m (Expr.of_terms [ (1.0, x); (2.0, y) ]) Model.Ge 6.0;
  Model.add_constraint m (Expr.of_terms [ (3.0, x); (1.0, y) ]) Model.Ge 9.0;
  Model.set_objective m Model.Minimize (Expr.add (Expr.var x) (Expr.var y));
  let s = solve_opt m in
  check_float "obj" 4.2 s.objective;
  check_float "x" 2.4 s.values.(x);
  check_float "y" 1.8 s.values.(y)

let test_equality () =
  (* min 2x + 3y s.t. x + y = 10, x - y = 2 -> x=6, y=4, obj 24. *)
  let m = Model.create () in
  let x = Model.add_var m and y = Model.add_var m in
  Model.add_constraint m (Expr.add (Expr.var x) (Expr.var y)) Model.Eq 10.0;
  Model.add_constraint m (Expr.sub (Expr.var x) (Expr.var y)) Model.Eq 2.0;
  Model.set_objective m Model.Minimize
    (Expr.of_terms [ (2.0, x); (3.0, y) ]);
  let s = solve_opt m in
  check_float "obj" 24.0 s.objective;
  check_float "x" 6.0 s.values.(x)

let test_infeasible () =
  let m = Model.create () in
  let x = Model.add_var ~ub:1.0 m in
  Model.add_constraint m (Expr.var x) Model.Ge 2.0;
  Model.set_objective m Model.Minimize (Expr.var x);
  Alcotest.(check bool) "infeasible" true (Simplex.solve m = Simplex.Infeasible)

let test_unbounded () =
  let m = Model.create () in
  let x = Model.add_var m in
  Model.set_objective m Model.Maximize (Expr.var x);
  Alcotest.(check bool) "unbounded" true (Simplex.solve m = Simplex.Unbounded)

let test_free_variable () =
  (* min x with free x and x >= -5 constraint -> -5. *)
  let m = Model.create () in
  let x = Model.add_var ~lb:neg_infinity m in
  Model.add_constraint m (Expr.var x) Model.Ge (-5.0);
  Model.set_objective m Model.Minimize (Expr.var x);
  let s = solve_opt m in
  check_float "x" (-5.0) s.values.(x)

let test_negative_lower_bound () =
  (* min x + y with x in [-3, 7], y in [-2, inf), x + y >= -4. *)
  let m = Model.create () in
  let x = Model.add_var ~lb:(-3.0) ~ub:7.0 m in
  let y = Model.add_var ~lb:(-2.0) m in
  Model.add_constraint m (Expr.add (Expr.var x) (Expr.var y)) Model.Ge (-4.0);
  Model.set_objective m Model.Minimize (Expr.add (Expr.var x) (Expr.var y));
  let s = solve_opt m in
  check_float "obj" (-4.0) s.objective

let test_upper_bound_only () =
  (* max x with lb = -oo, ub = 3. *)
  let m = Model.create () in
  let x = Model.add_var ~lb:neg_infinity ~ub:3.0 m in
  Model.set_objective m Model.Maximize (Expr.var x);
  let s = solve_opt m in
  check_float "x" 3.0 s.values.(x)

let test_fixed_variable_substitution () =
  (* x fixed at 2 by bounds; min y s.t. y >= 3x -> 6. *)
  let m = Model.create () in
  let x = Model.add_var ~lb:2.0 ~ub:2.0 m in
  let y = Model.add_var m in
  Model.add_constraint m
    (Expr.sub (Expr.var y) (Expr.term 3.0 x))
    Model.Ge 0.0;
  Model.set_objective m Model.Minimize (Expr.var y);
  let s = solve_opt m in
  check_float "y" 6.0 s.values.(y);
  check_float "x" 2.0 s.values.(x)

let test_constant_in_expressions () =
  (* Constraint with embedded constant: (x + 1) <= 4  ->  x <= 3. *)
  let m = Model.create () in
  let x = Model.add_var m in
  Model.add_constraint m
    (Expr.add (Expr.var x) (Expr.constant 1.0))
    Model.Le 4.0;
  Model.set_objective m Model.Maximize (Expr.var x);
  let s = solve_opt m in
  check_float "x" 3.0 s.values.(x)

let test_degenerate_cycling_guard () =
  (* The classic Beale cycling example; Bland's fallback must terminate. *)
  let m = Model.create () in
  let x1 = Model.add_var m and x2 = Model.add_var m in
  let x3 = Model.add_var m and x4 = Model.add_var m in
  Model.add_constraint m
    (Expr.of_terms [ (0.25, x1); (-8.0, x2); (-1.0, x3); (9.0, x4) ])
    Model.Le 0.0;
  Model.add_constraint m
    (Expr.of_terms [ (0.5, x1); (-12.0, x2); (-0.5, x3); (3.0, x4) ])
    Model.Le 0.0;
  Model.add_constraint m (Expr.var x3) Model.Le 1.0;
  Model.set_objective m Model.Maximize
    (Expr.of_terms [ (0.75, x1); (-20.0, x2); (0.5, x3); (-6.0, x4) ]);
  let s = solve_opt m in
  check_float ~eps:1e-6 "obj" 1.25 s.objective

let test_iter_limit_status () =
  (* A Ge constraint forces phase-1 pivots; max_iter:0 must surface the
     typed Iter_limit status instead of raising. *)
  let m = Model.create () in
  let x = Model.add_var m and y = Model.add_var m in
  Model.add_constraint m (Expr.of_terms [ (1.0, x); (2.0, y) ]) Model.Ge 6.0;
  Model.set_objective m Model.Minimize (Expr.add (Expr.var x) (Expr.var y));
  (match Simplex.solve ~max_iter:0 m with
  | Simplex.Iter_limit p ->
    Alcotest.(check int) "stalled in phase 1" 1 p.Simplex.phase
  | st -> Alcotest.failf "expected iter limit, got %a" Simplex.pp_status st);
  (* The same model solves fine with the default budget. *)
  match Simplex.solve m with
  | Simplex.Optimal _ -> ()
  | st -> Alcotest.failf "expected optimal, got %a" Simplex.pp_status st

let test_warm_start_matches_cold () =
  (* Solve, keep the basis, perturb a bound, and re-solve warm: the warm
     run must agree with a cold solve to tight tolerance. *)
  let build ub =
    let m = Model.create () in
    let x = Model.add_var ~name:"x" ~ub m in
    let y = Model.add_var ~name:"y" ~ub:6.0 m in
    Model.add_constraint m
      (Expr.of_terms [ (3.0, x); (2.0, y) ])
      Model.Le 18.0;
    Model.set_objective m Model.Maximize
      (Expr.of_terms [ (3.0, x); (5.0, y) ]);
    m
  in
  let basis =
    match Simplex.solve_compiled (Compiled.of_model (build 4.0)) with
    | Simplex.Optimal _, Some b, _ -> b
    | _ -> Alcotest.fail "cold solve of the base model failed"
  in
  let tightened = build 1.5 in
  let warm =
    match Simplex.solve_compiled ~basis (Compiled.of_model tightened) with
    | Simplex.Optimal s, _, _ -> s
    | st, _, _ -> Alcotest.failf "warm solve: %a" Simplex.pp_status st
  in
  let cold = solve_opt (build 1.5) in
  check_float ~eps:1e-9 "objective" cold.objective warm.objective;
  check_float ~eps:1e-9 "x" cold.values.(0) warm.values.(0);
  check_float ~eps:1e-9 "y" cold.values.(1) warm.values.(1)

(* ------------------------------------------------------------------ *)
(* Property tests *)

let feasible_within m (s : Simplex.solution) =
  let tol = 1e-5 in
  List.for_all
    (fun (c : Model.constr) ->
      let lhs = Expr.eval (fun i -> s.values.(i)) c.expr in
      match c.cmp with
      | Model.Le -> lhs <= c.rhs +. tol
      | Model.Ge -> lhs >= c.rhs -. tol
      | Model.Eq -> Float.abs (lhs -. c.rhs) <= tol)
    (Model.constraints m)
  && List.for_all
       (fun i ->
         let lb, ub = Model.bounds m i in
         s.values.(i) >= lb -. tol && s.values.(i) <= ub +. tol)
       (List.init (Model.num_vars m) Fun.id)

(* Random box-constrained LPs built around a known feasible point. *)
let random_lp_gen =
  QCheck.Gen.(
    let* n = int_range 2 6 in
    let* mrows = int_range 1 6 in
    let* c = array_size (return n) (float_range (-5.0) 5.0) in
    let* a =
      array_size (return (mrows * n)) (float_range (-4.0) 4.0)
    in
    let* x0 = array_size (return n) (float_range 0.0 3.0) in
    let* slack = array_size (return mrows) (float_range 0.0 2.0) in
    return (n, mrows, c, a, x0, slack))

let build_lp (n, mrows, c, a, x0, slack) =
  let m = Model.create () in
  let vars = Array.init n (fun _ -> Model.add_var ~ub:5.0 m) in
  for i = 0 to mrows - 1 do
    let row = List.init n (fun j -> (a.((i * n) + j), vars.(j))) in
    let b =
      List.fold_left (fun acc (cf, v) -> acc +. (cf *. x0.(v))) 0.0 row
      +. slack.(i)
    in
    Model.add_constraint m (Expr.of_terms row) Model.Le b
  done;
  Model.set_objective m Model.Minimize
    (Expr.of_terms (List.init n (fun j -> (c.(j), vars.(j)))));
  (m, x0)

let qcheck_random_lp_feasible_and_no_worse =
  QCheck.Test.make ~name:"random LPs: optimal, feasible, beats seed point"
    ~count:300
    (QCheck.make random_lp_gen)
    (fun spec ->
      let m, x0 = build_lp spec in
      match Simplex.solve m with
      | Simplex.Optimal s ->
        let _, obj = Model.objective m in
        let seed_obj = Expr.eval (fun i -> x0.(i)) obj in
        feasible_within m s && s.objective <= seed_obj +. 1e-5
      | Simplex.Unbounded -> false (* box-bounded: impossible *)
      | Simplex.Infeasible -> false (* x0 is feasible by construction *)
      | Simplex.Iter_limit _ -> false (* tiny instances converge *))

(* Strong duality: min c'x, Ax >= b, x >= 0   vs   max b'y, A'y <= c,
   y >= 0, with c > 0 (bounded) and rows guaranteed satisfiable. *)
let duality_gen =
  QCheck.Gen.(
    let* n = int_range 2 5 in
    let* mrows = int_range 2 5 in
    let* c = array_size (return n) (float_range 0.1 5.0) in
    let* a = array_size (return (mrows * n)) (float_range 0.0 3.0) in
    let* b = array_size (return mrows) (float_range 0.0 8.0) in
    return (n, mrows, c, a, b))

let qcheck_strong_duality =
  QCheck.Test.make ~name:"strong duality on random primal/dual pairs"
    ~count:200
    (QCheck.make duality_gen)
    (fun (n, mrows, c, a, b) ->
      (* Ensure every row with positive rhs has at least one positive
         coefficient so the primal is feasible. *)
      let a = Array.copy a in
      for i = 0 to mrows - 1 do
        let has_pos = ref false in
        for j = 0 to n - 1 do
          if a.((i * n) + j) > 0.1 then has_pos := true
        done;
        if not !has_pos then a.(i * n) <- 1.0
      done;
      let primal = Model.create () in
      let xs = Array.init n (fun _ -> Model.add_var primal) in
      for i = 0 to mrows - 1 do
        Model.add_constraint primal
          (Expr.of_terms (List.init n (fun j -> (a.((i * n) + j), xs.(j)))))
          Model.Ge b.(i)
      done;
      Model.set_objective primal Model.Minimize
        (Expr.of_terms (List.init n (fun j -> (c.(j), xs.(j)))));
      let dual = Model.create () in
      let ys = Array.init mrows (fun _ -> Model.add_var dual) in
      for j = 0 to n - 1 do
        Model.add_constraint dual
          (Expr.of_terms
             (List.init mrows (fun i -> (a.((i * n) + j), ys.(i)))))
          Model.Le c.(j)
      done;
      Model.set_objective dual Model.Maximize
        (Expr.of_terms (List.init mrows (fun i -> (b.(i), ys.(i)))));
      match (Simplex.solve primal, Simplex.solve dual) with
      | Simplex.Optimal p, Simplex.Optimal d ->
        Float.abs (p.objective -. d.objective)
        <= 1e-5 *. Float.max 1.0 (Float.abs p.objective)
      | _ -> false)

(* Lu_eta, with the words each factorization allocates tallied. *)
let factor_words = ref 0.0

module Tallied = Simplex.Make (struct
  include Lu_eta

  let factor t ~m ~ptr ~row ~vals =
    let w0 = Gc.minor_words () in
    let ok = Lu_eta.factor t ~m ~ptr ~row ~vals in
    factor_words := !factor_words +. (Gc.minor_words () -. w0);
    ok
end)

(* A solve reads its bounds unboxed.  The second cold solve of gsm's
   unfiltered Table-4 root LP in one workspace spends about 420 minor
   words per pivot in its 13 factorizations and about 50 in everything
   else; when every bound read boxed a float, everything else took about
   930. *)
let test_solve_alloc_per_pivot () =
  let c =
    Compiled.of_model (Test_basis.table4_model ~filter:false "gsm" 0)
  in
  let ws = Tallied.workspace () in
  let solve () =
    match Tallied.solve_compiled ~ws c with
    | Simplex.Optimal _, _, st -> st.Simplex.pivots
    | st, _, _ -> Alcotest.failf "gsm root LP: %a" Simplex.pp_status st
  in
  ignore (solve ());
  factor_words := 0.0;
  let w0 = Gc.minor_words () in
  let pivots = solve () in
  let total = Gc.minor_words () -. w0 in
  if pivots < 50 then Alcotest.failf "gsm root LP took only %d pivots" pivots;
  let per_pivot w = w /. float_of_int pivots in
  let outside = per_pivot (total -. !factor_words) in
  if outside >= 100.0 then
    Alcotest.failf
      "gsm root LP allocated %.0f minor words per pivot outside its \
       factorizations (budget 100, %d pivots)"
      outside pivots;
  if per_pivot total >= 600.0 then
    Alcotest.failf
      "gsm root LP allocated %.0f minor words per pivot (budget 600, %d \
       pivots)"
      (per_pivot total) pivots

let suite =
  [ Alcotest.test_case "dantzig example" `Quick test_dantzig_example;
    Alcotest.test_case "ge constraints" `Quick test_ge_constraints;
    Alcotest.test_case "equality" `Quick test_equality;
    Alcotest.test_case "infeasible" `Quick test_infeasible;
    Alcotest.test_case "unbounded" `Quick test_unbounded;
    Alcotest.test_case "free variable" `Quick test_free_variable;
    Alcotest.test_case "negative lower bound" `Quick
      test_negative_lower_bound;
    Alcotest.test_case "upper bound only" `Quick test_upper_bound_only;
    Alcotest.test_case "fixed variable substitution" `Quick
      test_fixed_variable_substitution;
    Alcotest.test_case "constant folding in constraints" `Quick
      test_constant_in_expressions;
    Alcotest.test_case "beale cycling guard" `Quick
      test_degenerate_cycling_guard;
    Alcotest.test_case "iter limit status" `Quick test_iter_limit_status;
    Alcotest.test_case "warm start matches cold" `Quick
      test_warm_start_matches_cold;
    Alcotest.test_case "solve allocation per pivot on gsm unfiltered" `Quick
      test_solve_alloc_per_pivot;
    QCheck_alcotest.to_alcotest qcheck_random_lp_feasible_and_no_worse;
    QCheck_alcotest.to_alcotest qcheck_strong_duality ]
