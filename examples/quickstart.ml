(* Quickstart: the whole compile-time DVS pipeline on a small program.

     dune exec examples/quickstart.exe

   Steps: write a MiniC program, compile it to a CFG, profile it on the
   cycle-level machine (one recorded run, re-costed per DVS mode), build
   and solve the MILP that places a mode on every control-flow edge,
   then re-simulate with the schedule applied and check the deadline. *)

let source =
  "int data[4096]; int s; int i; int j;\n\
   s = 0;\n\
   // streaming pass: misses dominate, the clock can crawl for free\n\
   for (i = 0; i < 4096; i = i + 1) { s = s + data[i]; }\n\
   // compute pass: every cycle counts\n\
   for (i = 0; i < 150; i = i + 1) {\n\
   \  for (j = 0; j < 30; j = j + 1) { s = s + (i * j) / 3; }\n\
   }"

let () =
  (* 1. Compile. *)
  let cfg, layout = Dvs_lang.Lower.compile_string source in
  Printf.printf "compiled: %d basic blocks, %d edges\n"
    (Dvs_ir.Cfg.num_blocks cfg)
    (Array.length (Dvs_ir.Cfg.edges cfg));

  (* 2. Pick a machine: XScale-like 3 modes, small caches so the stream
     actually misses. *)
  let machine =
    Dvs_machine.Config.default
      ~l1d:{ Dvs_machine.Config.size_bytes = 1024; assoc = 2;
             block_bytes = 32; latency_cycles = 1 }
      ~l2:{ Dvs_machine.Config.size_bytes = 8192; assoc = 4;
            block_bytes = 32; latency_cycles = 16 }
      ~dram_latency:400e-9
      (* Regulator sized to this sub-millisecond program: mode switches
         cost ~60ns/6nJ, the same cost *ratio* a 10uF regulator has on a
         50x longer run. *)
      ~regulator:(Dvs_power.Switch_cost.regulator ~capacitance:0.05e-6 ())
      ()
  in
  let memory = Array.init layout.Dvs_lang.Lower.memory_words (fun i -> i mod 255) in

  (* 3. Profile: one recorded simulation, replayed pinned at each mode. *)
  let profile = Dvs_profile.Profile.collect machine cfg ~memory in
  let t_fast = Dvs_profile.Profile.pinned_time profile ~mode:2 in
  let t_slow = Dvs_profile.Profile.pinned_time profile ~mode:0 in
  Printf.printf "pinned runs: %.3f ms at 800MHz ... %.3f ms at 200MHz\n"
    (t_fast *. 1e3) (t_slow *. 1e3);

  (* 4. Ask for a deadline a third of the way into the feasible range and
     let the MILP place the mode-set instructions. *)
  let deadline = t_fast +. (0.45 *. (t_slow -. t_fast)) in
  let result = Dvs_core.Pipeline.optimize machine cfg ~memory ~deadline in
  (match Dvs_core.(result.Pipeline.schedule, result.Pipeline.verification) with
  | Some schedule, Some v ->
    Printf.printf "deadline: %.3f ms\n" (deadline *. 1e3);
    Printf.printf "modes used: %s (entry mode %d)\n"
      (String.concat ", "
         (List.map string_of_int (Dvs_core.Schedule.distinct_modes schedule)))
      schedule.Dvs_core.Schedule.entry_mode;
    Printf.printf "measured: %.3f ms, %.1f uJ (deadline %s)\n"
      (v.Dvs_core.Verify.stats.Dvs_machine.Cpu.time *. 1e3)
      (v.Dvs_core.Verify.stats.Dvs_machine.Cpu.energy *. 1e6)
      (if v.Dvs_core.Verify.meets_deadline then "met" else "MISSED");
    (* 5. Compare with the best single frequency. *)
    (match Dvs_core.Baselines.best_single_mode profile ~deadline with
    | Some (mode, base) ->
      Printf.printf
        "best single mode: mode %d at %.1f uJ -> DVS saves %.1f%%\n" mode
        (base *. 1e6)
        (100.0
        *. (1.0 -. (v.Dvs_core.Verify.stats.Dvs_machine.Cpu.energy /. base)))
    | None -> print_endline "no single mode meets this deadline")
  | _ -> print_endline "optimization failed (deadline infeasible?)")
