(* Remaining surfaces: the heap, report rendering, the runtime governor,
   LP export of a real formulation, and small odds and ends. *)

let test_heap_sorts () =
  let h = Dvs_milp.Heap.create ~cmp:compare in
  List.iter (Dvs_milp.Heap.push h) [ 5; 1; 4; 1; 3; 9; 2 ];
  Alcotest.(check int) "size" 7 (Dvs_milp.Heap.size h);
  let rec drain acc =
    match Dvs_milp.Heap.pop h with
    | Some x -> drain (x :: acc)
    | None -> List.rev acc
  in
  Alcotest.(check (list int)) "sorted" [ 1; 1; 2; 3; 4; 5; 9 ] (drain [])

let qcheck_heap_property =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Dvs_milp.Heap.create ~cmp:compare in
      List.iter (Dvs_milp.Heap.push h) xs;
      let rec drain acc =
        match Dvs_milp.Heap.pop h with
        | Some x -> drain (x :: acc)
        | None -> List.rev acc
      in
      drain [] = List.sort compare xs)

let test_table_render () =
  let t =
    Dvs_report.Table.create
      [ ("name", Dvs_report.Table.Left); ("value", Dvs_report.Table.Right) ]
  in
  Dvs_report.Table.add_row t [ "alpha"; "1.5" ];
  Dvs_report.Table.add_rule t;
  Dvs_report.Table.add_row t [ "b"; "22.25" ];
  let s = Dvs_report.Table.render t in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check bool) "header present" true
    (List.exists (fun l -> l = "name   value") lines);
  Alcotest.(check bool) "right aligned" true
    (List.exists (fun l -> l = "b      22.25") lines);
  Alcotest.check_raises "arity"
    (Invalid_argument "Table.add_row: arity mismatch") (fun () ->
      Dvs_report.Table.add_row t [ "only-one" ])

let test_render_surface () =
  let s =
    Dvs_analytical.Sweep.surface ~x_label:"x" ~y_label:"y"
      ~xs:[| 1.0; 2.0 |] ~ys:[| 10.0; 20.0 |]
      (fun x y -> if x = 2.0 && y = 20.0 then None else Some ((x +. y) /. 100.))
  in
  let out = Dvs_report.Render.surface s in
  Alcotest.(check bool) "mentions labels" true
    (String.length out > 0
    && (try ignore (Str.search_forward (Str.regexp_string "peak:") out 0); true
        with Not_found -> false));
  match Dvs_analytical.Sweep.max_point s with
  | Some (x, y, v) ->
    Alcotest.(check (float 1e-9)) "peak value" 0.21 v;
    Alcotest.(check (float 1e-9)) "peak x" 1.0 x;
    Alcotest.(check (float 1e-9)) "peak y" 20.0 y
  | None -> Alcotest.fail "expected a peak"

let test_governor_ramps_up_when_busy () =
  (* Pure compute at mode 0 with a governor: utilization is 1.0, so the
     governor must climb to the fastest mode. *)
  let src = "int s; int i; for (i = 0; i < 20000; i = i + 1) { s = s + i; }" in
  let cfg, _ = Dvs_lang.Lower.compile_string src in
  let machine = Dvs_workloads.Workload.eval_config () in
  let governor = Dvs_core.Baselines.weiser_governor ~interval:5e-6 in
  let r =
    Dvs_machine.Cpu.run
      ~rc:(Dvs_machine.Cpu.Run_config.make ~initial_mode:0 ~governor ())
      machine cfg ~memory:[||]
  in
  Alcotest.(check int) "climbed two steps" 2 r.Dvs_machine.Cpu.mode_transitions;
  (* Compare with pinned slow: governor must be faster. *)
  let slow =
    Dvs_machine.Cpu.run
      ~rc:(Dvs_machine.Cpu.Run_config.make ~initial_mode:0 ())
      machine cfg ~memory:[||]
  in
  Alcotest.(check bool) "faster than all-slow" true
    (r.Dvs_machine.Cpu.time < slow.Dvs_machine.Cpu.time)

let test_governor_steps_down_when_stalled () =
  (* A DRAM-stall-dominated pointer chase: utilization is low, so from
     the fastest mode the governor must step down. *)
  let src =
    "int a[4096]; int s; int i;\n\
     for (i = 0; i < 4096; i = i + 1) { s = s + a[i]; }"
  in
  let cfg, layout = Dvs_lang.Lower.compile_string src in
  let mem = Array.make layout.Dvs_lang.Lower.memory_words 1 in
  let machine =
    Dvs_machine.Config.default
      ~l1d:{ Dvs_machine.Config.size_bytes = 128; assoc = 2; block_bytes = 16;
             latency_cycles = 1 }
      ~l2:{ Dvs_machine.Config.size_bytes = 512; assoc = 2; block_bytes = 16;
            latency_cycles = 4 }
      ~dram_latency:2e-6 ()
  in
  let governor = Dvs_core.Baselines.weiser_governor ~interval:2e-4 in
  let r =
    Dvs_machine.Cpu.run
      ~rc:(Dvs_machine.Cpu.Run_config.make ~initial_mode:2 ~governor ())
      machine cfg ~memory:mem
  in
  Alcotest.(check bool) "stepped down" true
    (r.Dvs_machine.Cpu.mode_transitions >= 1)

let test_mode_index_of () =
  let tbl = Dvs_power.Mode.xscale3 in
  Alcotest.(check int) "middle" 1
    (Dvs_power.Mode.index_of tbl (Dvs_power.Mode.get tbl 1));
  Alcotest.check_raises "absent" Not_found (fun () ->
      ignore
        (Dvs_power.Mode.index_of tbl
           (Dvs_power.Mode.make ~voltage:1.0 ~frequency:123e6)))

let test_expr_algebra () =
  let open Dvs_lp in
  let e =
    Expr.add
      (Expr.of_terms ~const:2.0 [ (1.0, 0); (2.0, 1) ])
      (Expr.of_terms ~const:(-1.0) [ (-1.0, 0); (3.0, 2) ])
  in
  Alcotest.(check (float 1e-12)) "const" 1.0 (Expr.const e);
  Alcotest.(check (float 1e-12)) "x0 cancels" 0.0 (Expr.coeff e 0);
  Alcotest.(check (float 1e-12)) "x1" 2.0 (Expr.coeff e 1);
  Alcotest.(check (float 1e-12)) "eval" (1.0 +. 2.0 +. 3.0)
    (Expr.eval (fun _ -> 1.0) e);
  Alcotest.(check int) "max var" 2 (Expr.max_var e);
  Alcotest.(check int) "nonzero terms" 2 (List.length (Expr.coeffs e))

let qcheck_schedule_roundtrip =
  QCheck.Test.make ~name:"schedule serialization round-trips" ~count:100
    QCheck.(pair (int_range 0 2) (list_of_size (QCheck.Gen.int_range 1 40) (int_range 0 2)))
    (fun (entry_mode, edges) ->
      let s =
        { Dvs_core.Schedule.edge_mode = Array.of_list edges; entry_mode }
      in
      match Dvs_core.Schedule.of_string (Dvs_core.Schedule.to_string s) with
      | Ok s' ->
        s'.Dvs_core.Schedule.entry_mode = s.Dvs_core.Schedule.entry_mode
        && s'.Dvs_core.Schedule.edge_mode = s.Dvs_core.Schedule.edge_mode
      | Error _ -> false)

let test_schedule_parse_errors () =
  List.iter
    (fun text ->
      match Dvs_core.Schedule.of_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse error for %S" text)
    [ ""; "edge 0 1\n"; "entry x\n"; "entry 1\nedge 5 0\n";
      "entry 1\nbogus\n" ]

let suite =
  [ Alcotest.test_case "heap sorts" `Quick test_heap_sorts;
    QCheck_alcotest.to_alcotest qcheck_schedule_roundtrip;
    Alcotest.test_case "schedule parse errors" `Quick
      test_schedule_parse_errors;
    QCheck_alcotest.to_alcotest qcheck_heap_property;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "surface render" `Quick test_render_surface;
    Alcotest.test_case "governor ramps up" `Quick
      test_governor_ramps_up_when_busy;
    Alcotest.test_case "governor steps down" `Quick
      test_governor_steps_down_when_stalled;
    Alcotest.test_case "mode index_of" `Quick test_mode_index_of;
    Alcotest.test_case "expr algebra" `Quick test_expr_algebra ]
