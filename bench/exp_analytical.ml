(* Section 3 reproductions: Figures 2-11, Tables 1 and 7. *)

open Dvs_analytical
open Dvs_report

let us = 1e-6

let mk ~nov ~ndep ~ncache ~tinv_us ~tdl_us =
  Params.make ~n_overlap:nov ~n_dependent:ndep ~n_cache:ncache
    ~t_invariant:(tinv_us *. us) ~t_deadline:(tdl_us *. us)

let heading id title params_desc =
  Printf.printf "\n=== %s: %s ===\n%s\n" id title params_desc

(* --- Figures 2-4: energy vs v1 curves ------------------------------- *)

let curve_figure id title p =
  heading id title (Format.asprintf "params %a (%a)" Params.pp p
                      Params.pp_case (Params.classify p));
  let pts = Continuous.curve p ~v_lo:0.55 ~v_hi:3.5 ~n:25 in
  print_string
    (Render.series ~x_label:"v1 (V)" ~y_label:"energy (V^2 cyc)" pts);
  (match Continuous.optimize p with
  | Some s ->
    Printf.printf
      "optimal: E=%.4g, v1=%.3f V (f1=%.0f MHz), v2=%.3f V (f2=%.0f MHz)\n"
      s.Continuous.energy s.Continuous.v1
      (s.Continuous.f1 /. 1e6)
      s.Continuous.v2
      (s.Continuous.f2 /. 1e6)
  | None -> print_endline "optimal: infeasible");
  match Continuous.single_frequency p with
  | Some s ->
    Printf.printf "best single frequency: E=%.4g at %.3f V\n"
      s.Continuous.energy s.Continuous.v1
  | None -> ()

let fig2 () =
  curve_figure "Figure 2" "computation-dominated: one voltage is optimal"
    (mk ~nov:2e6 ~ndep:3e6 ~ncache:3e5 ~tinv_us:200. ~tdl_us:5000.)

let fig3 () =
  curve_figure "Figure 3" "memory-dominated: two voltages beat one"
    (mk ~nov:4e6 ~ndep:5.8e6 ~ncache:3e5 ~tinv_us:3000. ~tdl_us:5000.)

let fig4 () =
  curve_figure "Figure 4"
    "memory-dominated with slack (Ncache >= Noverlap): one voltage again"
    (mk ~nov:5e5 ~ndep:3e6 ~ncache:2e6 ~tinv_us:1000. ~tdl_us:9000.)

(* --- Figures 5-7: continuous savings surfaces ------------------------ *)

let lin lo hi n = Dvs_numeric.Vec.linspace lo hi n

let fig5 () =
  heading "Figure 5" "continuous savings vs (Noverlap, Ndependent)"
    "Ncache=3e5 cyc, tdeadline=3000us, tinvariant=1000us; values in %";
  let base = mk ~nov:0. ~ndep:0. ~ncache:3e5 ~tinv_us:1000. ~tdl_us:3000. in
  let s =
    Sweep.continuous_savings ~base ~x_label:"Noverlap (Kcyc)"
      ~y_label:"Ndependent (Kcyc)" ~xs:(lin 200. 1800. 9)
      ~ys:(lin 0. 1500. 7)
      (fun b x y ->
        { b with Params.n_overlap = x *. 1e3; n_dependent = y *. 1e3 })
  in
  print_string (Render.surface s)

let fig6 () =
  heading "Figure 6" "continuous savings vs (Ncache, tinvariant)"
    "Noverlap=4e6, Ndependent=5.8e6, tdeadline=5000us; values in %";
  let base = mk ~nov:4e6 ~ndep:5.8e6 ~ncache:0. ~tinv_us:0. ~tdl_us:5000. in
  let s =
    Sweep.continuous_savings ~base ~x_label:"Ncache (Kcyc)"
      ~y_label:"tinvariant (us)" ~xs:(lin 200. 1800. 9)
      ~ys:(lin 500. 3500. 7)
      (fun b x y ->
        { b with Params.n_cache = x *. 1e3; t_invariant = y *. us })
  in
  print_string (Render.surface s)

let fig7 () =
  heading "Figure 7" "continuous savings vs (tdeadline, Ncache)"
    "Noverlap=4e6, Ndependent=5.7e6, tinvariant=1000us; values in %";
  let base = mk ~nov:4e6 ~ndep:5.7e6 ~ncache:0. ~tinv_us:1000. ~tdl_us:5000. in
  let s =
    Sweep.continuous_savings ~base ~x_label:"tdeadline (us)"
      ~y_label:"Ncache (Kcyc)" ~xs:(lin 1500. 5000. 8)
      ~ys:(lin 500. 4000. 8)
      (fun b x y ->
        { b with Params.t_deadline = x *. us; n_cache = y *. 1e3 })
  in
  print_string (Render.surface s)

(* --- Figure 8: discrete Emin(y) -------------------------------------- *)

let levels7 = Dvs_power.Mode.xscale_levels 7

let fig8 () =
  heading "Figure 8" "discrete case: energy vs y (time given to Ncache)"
    "7 levels; Nov=1.3e7, Ndep=7e7, Ncache=5e6, tinv=0.1s, tdl=0.35s";
  let p =
    mk ~nov:1.3e7 ~ndep:7e7 ~ncache:5e6 ~tinv_us:1e5 ~tdl_us:3.5e5
  in
  let pts =
    List.filter_map
      (fun y ->
        let e = Discrete.emin_of_y p levels7 y in
        if Float.is_finite e then Some (y *. 1e3, e) else None)
      (Array.to_list (lin 8e-3 0.16 30))
  in
  print_string (Render.series ~x_label:"y (ms)" ~y_label:"Emin(y)" pts);
  match Discrete.optimize p levels7 with
  | Some s -> Printf.printf "full optimizer: E=%.6g\n" s.Discrete.energy
  | None -> print_endline "full optimizer: infeasible"

(* --- Figures 9-11: discrete savings surfaces -------------------------- *)

let fig9 () =
  heading "Figure 9" "discrete savings vs (Noverlap, Ndependent)"
    "7 levels; Ncache=2e5, tdeadline=5200us, tinvariant=1000us; values in %";
  let base = mk ~nov:0. ~ndep:0. ~ncache:2e5 ~tinv_us:1000. ~tdl_us:5200. in
  let s =
    Sweep.discrete_savings ~table:levels7 ~base ~x_label:"Noverlap (Kcyc)"
      ~y_label:"Ndependent (Kcyc)" ~xs:(lin 200. 1800. 9)
      ~ys:(lin 200. 1500. 7)
      (fun b x y ->
        { b with Params.n_overlap = x *. 1e3; n_dependent = y *. 1e3 })
  in
  print_string (Render.surface s)

let fig10 () =
  heading "Figure 10" "discrete savings vs (Ncache, tinvariant)"
    "7 levels; Nov=1.3e7, Ndep=7e7, tdeadline=3.5e5us; values in %";
  let base = mk ~nov:1.3e7 ~ndep:7e7 ~ncache:0. ~tinv_us:0. ~tdl_us:3.5e5 in
  let s =
    Sweep.discrete_savings ~table:levels7 ~base ~x_label:"Ncache (Mcyc)"
      ~y_label:"tinvariant (ms)" ~xs:(lin 1. 15. 8) ~ys:(lin 20. 200. 7)
      (fun b x y ->
        { b with Params.n_cache = x *. 1e6; t_invariant = y *. 1e-3 })
  in
  print_string (Render.surface s)

let fig11 () =
  heading "Figure 11" "discrete savings vs (tdeadline, Ncache)"
    "7 levels; Nov=1.3e7, Ndep=7e7, tinvariant=30ms; values in %";
  let base = mk ~nov:1.3e7 ~ndep:7e7 ~ncache:0. ~tinv_us:3e4 ~tdl_us:3.5e5 in
  let s =
    Sweep.discrete_savings ~table:levels7 ~base ~x_label:"tdeadline (ms)"
      ~y_label:"Ncache (Mcyc)" ~xs:(lin 110. 400. 8) ~ys:(lin 0.5 15. 7)
      (fun b x y ->
        { b with Params.t_deadline = x *. 1e-3; n_cache = y *. 1e6 })
  in
  print_string (Render.surface s)

(* --- Table 7: measured program parameters ---------------------------- *)

(* The paper's Table 7 values (Kcycles, us), for shape comparison. *)
let paper_table7 =
  [ ("adpcm", (732.7, 735.6, 4302.0, 915.9));
    ("epic", (8835.6, 12190.4, 9290.1, 4955.9));
    ("gsm", (13979.6, 13383.0, 29438.3, 389.0));
    ("mpeg", (42621.1, 44068.7, 27592.1, 2713.4)) ]

let measured_params name =
  let p = Context.default_profile name in
  let ds = Context.deadlines name in
  Dvs_profile.Categorize.of_profile p ~deadline:ds.(2)

let table7 () =
  heading "Table 7" "simulated program parameters"
    "ours at 1/50 dynamic scale; paper values in parentheses for shape";
  let t =
    Table.create
      [ ("benchmark", Table.Left); ("Ncache (Kcyc)", Table.Right);
        ("Noverlap (Kcyc)", Table.Right); ("Ndependent (Kcyc)", Table.Right);
        ("tinvariant (us)", Table.Right) ]
  in
  List.iter
    (fun name ->
      let p = measured_params name in
      let pc, po, pd, pt = List.assoc name paper_table7 in
      let cell v paper = Printf.sprintf "%.1f (%.0f)" v paper in
      Table.add_row t
        [ name;
          cell (p.Params.n_cache /. 1e3) pc;
          cell (p.Params.n_overlap /. 1e3) po;
          cell (p.Params.n_dependent /. 1e3) pd;
          cell (p.Params.t_invariant /. us) pt ])
    Context.analytical_names;
  Table.print t

(* --- Table 1: analytical savings per level count and deadline -------- *)

let table1_level_counts = [ 3; 7; 13 ]

let table1_savings name =
  let prof = Context.default_profile name in
  (* Self-consistent analytic study: the five deadlines span the range of
     the analytic composition of the measured parameters (the simulator's
     own pinned times differ by a few percent because misses overlap
     phase boundaries there). *)
  let params = Dvs_profile.Categorize.of_profile prof ~deadline:1.0 in
  let f_of m = (m : Dvs_power.Mode.t).frequency in
  let table = Dvs_power.Mode.xscale_levels 3 in
  let t_fast = Params.total_time params (f_of (Dvs_power.Mode.max_mode table)) in
  let t_slow = Params.total_time params (f_of (Dvs_power.Mode.min_mode table)) in
  let ds = Dvs_workloads.Deadlines.of_times ~t_fast ~t_slow in
  List.map
    (fun n ->
      let table = Dvs_power.Mode.xscale_levels n in
      let row =
        Array.map
          (fun d ->
            let p = Dvs_profile.Categorize.of_profile prof ~deadline:d in
            match Savings.discrete p table with
            | Some r -> r
            | None -> Float.nan)
          ds
      in
      (n, row))
    table1_level_counts

let table1 () =
  heading "Table 1" "analytical energy-saving ratio"
    "per benchmark x voltage levels x deadline (1=stringent .. 5=lax)";
  let t =
    Table.create
      [ ("benchmark", Table.Left); ("levels", Table.Right);
        ("D1", Table.Right); ("D2", Table.Right); ("D3", Table.Right);
        ("D4", Table.Right); ("D5", Table.Right) ]
  in
  List.iter
    (fun name ->
      List.iter
        (fun (n, row) ->
          Table.add_row t
            (name :: string_of_int n
            :: Array.to_list (Array.map (Table.fmt_float ~digits:2) row)))
        (table1_savings name);
      Table.add_rule t)
    Context.analytical_names;
  Table.print t

(* --- Liyao: hull-mix kernel beside the closed-form backends ---------- *)

(* The Li-Yao-Yuan kernel run over the whole program as one region whose
   operating points are the 7-level table's (total time, energy) pairs:
   the optimal continuous mixture of discrete levels.  It brackets the
   other backends — at or above the two-voltage continuous optimum (the
   hull's vertices sit on the alpha-power curve, not below it) and at or
   above the full discrete optimizer only when the latter's phase split
   pays; where all three agree the instance is voltage-insensitive. *)
let liyao () =
  heading "Liyao" "hull-mix kernel vs closed-form backends"
    "E in V^2 cyc; hull mix = Liyao kernel over the 7-level (time, \
     energy) operating points, whole program as one region; discrete = \
     full phase-split optimizer at 7 levels";
  let t =
    Table.create
      [ ("benchmark", Table.Left); ("deadline", Table.Right);
        ("1-volt", Table.Right); ("2-volt", Table.Right);
        ("hull mix", Table.Right); ("discrete", Table.Right) ]
  in
  let fmt = function Some e -> Printf.sprintf "%.4g" e | None -> "-" in
  List.iter
    (fun name ->
      let prof = Context.default_profile name in
      let params = Dvs_profile.Categorize.of_profile prof ~deadline:1.0 in
      let f_of m = (m : Dvs_power.Mode.t).frequency in
      let t_fast =
        Params.total_time params (f_of (Dvs_power.Mode.max_mode levels7))
      in
      let t_slow =
        Params.total_time params (f_of (Dvs_power.Mode.min_mode levels7))
      in
      let ds = Dvs_workloads.Deadlines.of_times ~t_fast ~t_slow in
      let charged =
        Params.charged_overlap_cycles params +. params.Params.n_dependent
      in
      let points =
        Array.of_list
          (List.map
             (fun (m : Dvs_power.Mode.t) ->
               ( Params.total_time params m.frequency,
                 charged *. m.voltage *. m.voltage ))
             (Dvs_power.Mode.to_list levels7))
      in
      Array.iteri
        (fun i d ->
          let p = Dvs_profile.Categorize.of_profile prof ~deadline:d in
          let one =
            Option.map
              (fun s -> s.Continuous.energy)
              (Continuous.single_frequency p)
          in
          let two =
            Option.map (fun s -> s.Continuous.energy) (Continuous.optimize p)
          in
          let hull = Liyao.bound [| { Liyao.points; deadline = Some d } |] in
          let disc =
            Option.map
              (fun s -> s.Discrete.energy)
              (Discrete.optimize p levels7)
          in
          Table.add_row t
            [ name; Printf.sprintf "D%d" (i + 1); fmt one; fmt two; fmt hull;
              fmt disc ])
        ds;
      Table.add_rule t)
    Context.analytical_names;
  Table.print t

let all =
  [ ("fig2", fig2); ("fig3", fig3); ("fig4", fig4); ("fig5", fig5);
    ("fig6", fig6); ("fig7", fig7); ("fig8", fig8); ("fig9", fig9);
    ("fig10", fig10); ("fig11", fig11); ("table7", table7);
    ("table1", table1); ("liyao", liyao) ]
