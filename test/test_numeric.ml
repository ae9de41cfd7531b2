open Dvs_numeric

let approx ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_float ?(eps = 1e-9) what expected actual =
  if not (approx ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" what expected actual

(* ------------------------------------------------------------------ *)
(* Vec *)

let test_vec_dot () =
  check_float "dot" 32.0 (Vec.dot [| 1.0; 2.0; 3.0 |] [| 4.0; 5.0; 6.0 |]);
  Alcotest.check_raises "dot dim mismatch"
    (Invalid_argument "Vec.dot: dimension mismatch (2 vs 3)") (fun () ->
      ignore (Vec.dot [| 1.0; 2.0 |] [| 1.0; 2.0; 3.0 |]))

let test_vec_axpy () =
  let y = [| 1.0; 1.0 |] in
  Vec.axpy_inplace 2.0 [| 3.0; 4.0 |] y;
  check_float "axpy.0" 7.0 y.(0);
  check_float "axpy.1" 9.0 y.(1)

let test_vec_linspace () =
  let v = Vec.linspace 0.0 1.0 5 in
  Alcotest.(check int) "length" 5 (Vec.dim v);
  check_float "first" 0.0 v.(0);
  check_float "mid" 0.5 v.(2);
  check_float "last" 1.0 v.(4)

let test_vec_extremes () =
  let v = [| 3.0; -1.0; 7.0; 7.0; 0.0 |] in
  Alcotest.(check int) "max" 2 (Vec.max_index v);
  Alcotest.(check int) "min" 1 (Vec.min_index v);
  check_float "norm_inf" 7.0 (Vec.norm_inf v)

(* ------------------------------------------------------------------ *)
(* Optimize *)

let test_golden_quadratic () =
  let x, fx = Optimize.golden_section ~lo:(-10.0) ~hi:10.0
      (fun x -> ((x -. 3.0) ** 2.0) +. 1.0)
  in
  check_float ~eps:1e-6 "argmin" 3.0 x;
  check_float ~eps:1e-6 "min" 1.0 fx

let test_grid_multimodal () =
  (* Two local minima; the global one is at x = 4 with value -2. *)
  let f x = Float.min (((x -. 1.0) ** 2.0) -. 1.0) (((x -. 4.0) ** 2.0) -. 2.0) in
  let x, fx = Optimize.grid_minimize ~n:200 ~lo:0.0 ~hi:5.0 f in
  check_float ~eps:1e-4 "argmin" 4.0 x;
  check_float ~eps:1e-6 "min" (-2.0) fx

let test_bisect () =
  (match Optimize.bisect ~lo:0.0 ~hi:2.0 (fun x -> (x *. x) -. 2.0) with
  | None -> Alcotest.fail "bisect: no root found"
  | Some r -> check_float ~eps:1e-9 "sqrt2" (sqrt 2.0) r);
  Alcotest.(check bool) "no sign change" true
    (Optimize.bisect ~lo:0.0 ~hi:1.0 (fun _ -> 1.0) = None)

let test_invert_increasing () =
  let f x = x ** 3.0 in
  check_float ~eps:1e-8 "cbrt" 2.0 (Optimize.invert_increasing ~lo:0.0 ~hi:10.0 f 8.0);
  check_float "clamp low" 0.0 (Optimize.invert_increasing ~lo:0.0 ~hi:10.0 f (-1.0));
  check_float "clamp high" 10.0 (Optimize.invert_increasing ~lo:0.0 ~hi:10.0 f 1e9)

let qcheck_golden_beats_samples =
  QCheck.Test.make ~name:"golden section at least as good as endpoints/mid"
    ~count:200
    QCheck.(triple (float_range (-3.0) 3.0) (float_range 0.1 5.0)
              (float_range (-5.0) 5.0))
    (fun (center, scale, offset) ->
      let f x = (scale *. ((x -. center) ** 2.0)) +. offset in
      let _, fx = Optimize.golden_section ~lo:(-4.0) ~hi:4.0 f in
      fx <= f (-4.0) +. 1e-9 && fx <= f 4.0 +. 1e-9 && fx <= f 0.0 +. 1e-9)

let suite =
  [ Alcotest.test_case "vec dot" `Quick test_vec_dot;
    Alcotest.test_case "vec axpy" `Quick test_vec_axpy;
    Alcotest.test_case "vec linspace" `Quick test_vec_linspace;
    Alcotest.test_case "vec extremes" `Quick test_vec_extremes;
    Alcotest.test_case "golden section quadratic" `Quick test_golden_quadratic;
    Alcotest.test_case "grid minimize multimodal" `Quick test_grid_multimodal;
    Alcotest.test_case "bisect" `Quick test_bisect;
    Alcotest.test_case "invert increasing" `Quick test_invert_increasing;
    QCheck_alcotest.to_alcotest qcheck_golden_beats_samples ]
