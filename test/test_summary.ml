(* Summarized-verification suite: Verify.Session's tape replay and
   incremental splicing must be *bit-identical* to the cycle-accurate
   simulator — not approximately equal.  The whole point of the summary
   layer is that a deadline sweep can replay one recorded execution per
   candidate schedule; these tests are the license for that, checking
   structural equality of the full run_stats record (floats compared by
   bits, architectural state included) across random programs, random
   schedules, chained incremental mutations, parallel sweeps at jobs=1
   and jobs=4, and solver crash injection. *)

module Cpu = Dvs_machine.Cpu
module Config = Dvs_machine.Config
module Schedule = Dvs_core.Schedule
module Verify = Dvs_core.Verify
module Pipeline = Dvs_core.Pipeline
module Formulation = Dvs_core.Formulation

let jobs_list =
  match Sys.getenv_opt "DVS_FAULT_JOBS" with
  | Some s -> [ int_of_string (String.trim s) ]
  | None -> [ 1; 4 ]

(* Small multi-mode machine with real cache misses: L1/L2 tiny enough
   that the generated array walks miss, so the tape carries the full op
   vocabulary (compute, hit, wait, clear, both miss kinds). *)
let machine =
  Config.default
    ~l1d:{ Config.size_bytes = 512; assoc = 2; block_bytes = 16;
           latency_cycles = 1 }
    ~l2:{ Config.size_bytes = 2048; assoc = 2; block_bytes = 16;
          latency_cycles = 4 }
    ~dram_latency:8e-7
    ~regulator:(Dvs_power.Switch_cost.regulator ~capacitance:0.05e-6 ())
    ()

let n_modes = Dvs_power.Mode.size machine.Config.mode_table

(* Seed-parameterized program in the same family as test_dvs's random
   pipeline programs: loops, arrays, data-dependent branches. *)
let program ~seed =
  let rng = Random.State.make [| 0x50f7; seed |] in
  let arr = 64 + Random.State.int rng 192 in
  let outer = 2 + Random.State.int rng 4 in
  let inner = 8 + Random.State.int rng 24 in
  let stride = 1 + Random.State.int rng 12 in
  let branch_mod = 2 + Random.State.int rng 3 in
  let src =
    Printf.sprintf
      "int a[%d]; int s; int i; int j;\n\
       for (i = 0; i < %d; i = i + 1) {\n\
       \  for (j = 0; j < %d; j = j + 1) {\n\
       \    s = s + a[(j * %d) %% %d];\n\
       \    if (s %% %d == 0) { s = s + j; } else { s = s - 1; }\n\
       \  }\n\
       \  a[i %% %d] = s;\n\
       }"
      arr outer inner stride arr branch_mod arr
  in
  let cfg, layout = Dvs_lang.Lower.compile_string src in
  let mem =
    Array.init layout.Dvs_lang.Lower.memory_words (fun i -> (i * 7) mod 97)
  in
  (cfg, mem)

let random_schedule rng cfg =
  { Schedule.entry_mode = Random.State.int rng n_modes;
    edge_mode =
      Array.init
        (Array.length (Dvs_ir.Cfg.edges cfg))
        (fun _ -> Random.State.int rng n_modes) }

(* The ground truth a session must match: a fresh cycle-accurate run of
   the schedule. *)
let direct cfg mem s =
  Cpu.run
    ~rc:
      (Cpu.Run_config.make ~initial_mode:s.Schedule.entry_mode
         ~edge_modes:(Schedule.edge_modes s cfg) ())
    machine cfg ~memory:mem

let bits = Int64.bits_of_float

let check_stats what (expected : Cpu.run_stats) (actual : Cpu.run_stats) =
  (* Bit-exact on the floats the acceptance criteria name... *)
  List.iter
    (fun (field, e, a) ->
      if bits e <> bits a then
        Alcotest.failf "%s: %s differs: %.17g vs %.17g" what field e a)
    [ ("time", expected.Cpu.time, actual.Cpu.time);
      ("energy", expected.Cpu.energy, actual.Cpu.energy);
      ("stall_time", expected.Cpu.stall_time, actual.Cpu.stall_time);
      ("transition_time", expected.Cpu.transition_time,
       actual.Cpu.transition_time);
      ("transition_energy", expected.Cpu.transition_energy,
       actual.Cpu.transition_energy);
      ("miss_busy_time", expected.Cpu.miss_busy_time,
       actual.Cpu.miss_busy_time) ];
  List.iter
    (fun (field, e, a) ->
      if e <> a then Alcotest.failf "%s: %s differs: %d vs %d" what field e a)
    [ ("dyn_instrs", expected.Cpu.dyn_instrs, actual.Cpu.dyn_instrs);
      ("mode_transitions", expected.Cpu.mode_transitions,
       actual.Cpu.mode_transitions);
      ("overlap_cycles", expected.Cpu.overlap_cycles,
       actual.Cpu.overlap_cycles);
      ("dependent_cycles", expected.Cpu.dependent_cycles,
       actual.Cpu.dependent_cycles);
      ("cache_hit_cycles", expected.Cpu.cache_hit_cycles,
       actual.Cpu.cache_hit_cycles) ];
  (* ...and structural equality on everything, architectural state
     included (assumption 1 made checkable). *)
  if expected <> actual then
    Alcotest.failf "%s: run_stats records differ structurally" what

(* --- Session.check vs cycle-accurate, 25 seeds ------------------------- *)

let test_session_matches () =
  for seed = 0 to 24 do
    let cfg, mem = program ~seed in
    let session = Verify.Session.create machine cfg ~memory:mem in
    let rng = Random.State.make [| 0xab1e; seed |] in
    for trial = 0 to 2 do
      let s = random_schedule rng cfg in
      let v =
        Verify.Session.check session ~schedule:s ~deadline:1.0
          ~predicted_energy:1e-6
      in
      check_stats
        (Printf.sprintf "seed %d trial %d" seed trial)
        (direct cfg mem s) v.Verify.stats;
      if v.Verify.token = 0 then
        Alcotest.failf "seed %d trial %d: warm check returned token 0" seed
          trial
    done
  done

(* --- check ~against splicing, chained mutations, 25 seeds ------------- *)

let mutate rng s =
  let n = Array.length s.Schedule.edge_mode in
  let edge_mode = Array.copy s.Schedule.edge_mode in
  let kind = Random.State.int rng 4 in
  if kind = 3 || n = 0 then
    (* Entry-mode change: divergence from position 0. *)
    { Schedule.entry_mode = (s.Schedule.entry_mode + 1) mod n_modes;
      edge_mode }
  else begin
    (* Flip 1-3 edges, biased toward late edge indices so the splice
       actually reuses a prefix. *)
    let flips = 1 + Random.State.int rng 3 in
    for _ = 1 to flips do
      let i =
        if Random.State.bool rng then n - 1 - Random.State.int rng (max 1 (n / 2))
        else Random.State.int rng n
      in
      edge_mode.(i) <- Random.State.int rng n_modes
    done;
    { s with Schedule.edge_mode }
  end

let test_incremental_matches () =
  for seed = 0 to 24 do
    let cfg, mem = program ~seed in
    let session = Verify.Session.create machine cfg ~memory:mem in
    let rng = Random.State.make [| 0x1ac3; seed |] in
    let s0 = random_schedule rng cfg in
    let v0 =
      Verify.Session.check session ~schedule:s0 ~deadline:1.0
        ~predicted_energy:1e-6
    in
    check_stats (Printf.sprintf "seed %d base" seed) (direct cfg mem s0)
      v0.Verify.stats;
    let s = ref s0 and prev = ref v0 in
    for step = 0 to 4 do
      (* Step 2 re-checks the identical schedule: the zero-divergence
         path must still produce exact stats and a fresh token. *)
      let s' = if step = 2 then !s else mutate rng !s in
      let v =
        Verify.Session.check ~against:!prev session ~schedule:s'
          ~deadline:1.0 ~predicted_energy:1e-6
      in
      check_stats
        (Printf.sprintf "seed %d step %d" seed step)
        (direct cfg mem s') v.Verify.stats;
      if v.Verify.token = 0 || v.Verify.token = !prev.Verify.token then
        Alcotest.failf "seed %d step %d: bad token %d" seed step
          v.Verify.token;
      s := s';
      prev := v
    done
  done

(* --- cold vs warm across an entire sweep, jobs=1 and jobs=4 ------------ *)

let sweep_program = lazy (program ~seed:7)

let sweep_deadlines p ~points =
  let t_fast = Dvs_profile.Profile.pinned_time p ~mode:(n_modes - 1) in
  let t_slow = Dvs_profile.Profile.pinned_time p ~mode:0 in
  Array.init points (fun i ->
      let frac = 0.15 +. (0.75 *. float_of_int i /. float_of_int (points - 1)) in
      t_fast +. (frac *. (t_slow -. t_fast)))

let test_sweep_cold_vs_warm () =
  let cfg, mem = Lazy.force sweep_program in
  let p = Dvs_profile.Profile.collect machine cfg ~memory:mem in
  let deadlines = sweep_deadlines p ~points:4 in
  List.iter
    (fun jobs ->
      let run ~cold_verify =
        let config =
          Pipeline.Config.make
            ~solver:
              (Dvs_milp.Solver.Config.make ~jobs ~max_nodes:1500
                 ~time_limit:8.0 ())
            ~cold_verify ()
        in
        Pipeline.optimize_sweep ~config ~verify_config:machine ~profile:p
          machine cfg ~memory:mem ~deadlines
      in
      let cold = run ~cold_verify:true and warm = run ~cold_verify:false in
      Array.iteri
        (fun i (c : Pipeline.result) ->
          let w = warm.Pipeline.results.(i) in
          match (c.Pipeline.verification, w.Pipeline.verification) with
          | None, None -> ()
          | Some vc, Some vw ->
            check_stats
              (Printf.sprintf "jobs %d point %d" jobs i)
              vc.Verify.stats vw.Verify.stats;
            Alcotest.(check bool)
              "meets_deadline agrees" vc.Verify.meets_deadline
              vw.Verify.meets_deadline;
            if bits vc.Verify.energy_error <> bits vw.Verify.energy_error
            then
              Alcotest.failf "jobs %d point %d: energy_error differs" jobs i
          | _ ->
            Alcotest.failf "jobs %d point %d: verification presence differs"
              jobs i)
        cold.Pipeline.results)
    jobs_list

(* A warm session shared across the whole grid must agree with itself
   cold: same session, checks in sweep order, every report equal to a
   fresh cycle-accurate run. *)
let test_session_reuse_across_grid () =
  let cfg, mem = Lazy.force sweep_program in
  let session = Verify.Session.create machine cfg ~memory:mem in
  let rng = Random.State.make [| 0x9f1d |] in
  let prev = ref None in
  for i = 0 to 9 do
    let s = random_schedule rng cfg in
    let v =
      Verify.Session.check ?against:!prev session ~schedule:s ~deadline:1.0
        ~predicted_energy:1e-6
    in
    check_stats (Printf.sprintf "grid point %d" i) (direct cfg mem s)
      v.Verify.stats;
    prev := Some v
  done

(* --- exactness survives solver crash injection ------------------------- *)

let test_fault_injection_exact () =
  let cfg, mem = Lazy.force sweep_program in
  let p = Dvs_profile.Profile.collect machine cfg ~memory:mem in
  let deadline = (sweep_deadlines p ~points:4).(2) in
  List.iter
    (fun jobs ->
      let config =
        Pipeline.Config.make
          ~solver:
            (Dvs_milp.Solver.Config.make ~jobs ~max_nodes:1500
               ~time_limit:8.0 ()
            |> Dvs_milp.Solver.Config.with_fault
                 (Dvs_milp.Fault.make ~crash_every:3 ()))
          ()
      in
      let r =
        Pipeline.optimize_multi ~config ~verify_config:machine
          ~regulator:machine.Config.regulator ~memory:mem
          [ { Formulation.profile = p; weight = 1.0; deadline } ]
      in
      match (r.Pipeline.schedule, r.Pipeline.verification) with
      | Some s, Some v ->
        check_stats
          (Printf.sprintf "fault jobs %d" jobs)
          (direct cfg mem s) v.Verify.stats
      | _ ->
        (* Crash containment may legitimately end with no incumbent;
           only a produced schedule must verify exactly. *)
        ())
    jobs_list

(* --- deadline tolerance is the single source of truth ------------------ *)

let test_deadline_tolerance () =
  let cfg, mem = Lazy.force sweep_program in
  let session = Verify.Session.create machine cfg ~memory:mem in
  let s = Schedule.uniform cfg 0 in
  let v =
    Verify.Session.check session ~schedule:s ~deadline:1.0
      ~predicted_energy:1e-6
  in
  let t = v.Verify.stats.Cpu.time in
  let at d =
    (Verify.Session.check session ~schedule:s ~deadline:d
       ~predicted_energy:1e-6)
      .Verify.meets_deadline
  in
  Alcotest.(check bool) "inside tolerance" true
    (at (t /. (1.0 +. (Verify.deadline_tolerance /. 2.0))));
  Alcotest.(check bool) "outside tolerance" false
    (at (t /. (1.0 +. (2.0 *. Verify.deadline_tolerance))))

(* --- packed tape steps ---------------------------------------------- *)

module Tape = Dvs_machine.Tape
module Summary = Dvs_machine.Summary
module Cfg = Dvs_ir.Cfg

(* The oracle for a tape's steps: the block labels a cycle-accurate run
   enters, in order, and the incoming edges derived from consecutive
   labels with [Cfg.edge_index_of] (-1 at the entry), which is how a
   tape used to keep them. *)
let check_steps what config cfg ~memory =
  let labels = ref [] in
  let observer label ~via:_ ~time:_ ~energy:_ = labels := label :: !labels in
  ignore
    (Cpu.run ~rc:(Cpu.Run_config.make ~observer ()) config cfg ~memory);
  let labels = Array.of_list (List.rev !labels) in
  let tape = Summary.tape (Summary.create config cfg ~memory) in
  Alcotest.(check int) (what ^ ": positions") (Array.length labels)
    (Tape.positions tape);
  let n_vars = Array.length tape.Tape.variants in
  Array.iteri
    (fun p label ->
      let v = Tape.variant_at tape p in
      if v < 0 || v >= n_vars then
        Alcotest.failf "%s: position %d decodes variant %d of %d" what p v
          n_vars;
      if tape.Tape.variants.(v).Tape.label <> label then
        Alcotest.failf "%s: position %d is block %d, tape says %d" what p
          label tape.Tape.variants.(v).Tape.label;
      let expected =
        if p = 0 then -1
        else
          match Cfg.edge_index_of cfg ~src:labels.(p - 1) ~dst:label with
          | e -> e
          | exception Not_found -> -1
      in
      if Tape.edge_at tape p <> expected then
        Alcotest.failf "%s: position %d entered through edge %d, tape says %d"
          what p expected (Tape.edge_at tape p))
    labels;
  tape

let test_steps_workloads () =
  let config = Dvs_workloads.Workload.eval_config () in
  List.iter
    (fun (w : Dvs_workloads.Workload.t) ->
      List.iter
        (fun input ->
          let cfg, _, memory = Dvs_workloads.Workload.load w ~input in
          ignore
            (check_steps
               (w.Dvs_workloads.Workload.name ^ ":" ^ input)
               config cfg ~memory))
        w.Dvs_workloads.Workload.inputs)
    Dvs_workloads.Workload.all

let test_steps_seeded () =
  for seed = 0 to 24 do
    let cfg, mem = program ~seed in
    ignore (check_steps (Printf.sprintf "seed %d" seed) machine cfg ~memory:mem)
  done

(* A loop with exactly [n_edges] CFG edges: entry -> b1 -> ... -> bk ->
   tail, tail branching back to b1 three times before the halt block;
   k + 3 edges in all. *)
let loop_cfg ~n_edges =
  let k = n_edges - 3 in
  let b = Cfg.Builder.create () in
  let entry = Cfg.Builder.add_block b in
  let chain = Array.init k (fun _ -> Cfg.Builder.add_block b) in
  let tail = Cfg.Builder.add_block b in
  let halt = Cfg.Builder.add_block b in
  Cfg.Builder.push b entry (Dvs_ir.Instr.Li (1, 3));
  Cfg.Builder.push b entry (Dvs_ir.Instr.Li (3, 1));
  Cfg.Builder.set_term b entry (Cfg.Jump chain.(0));
  Array.iteri
    (fun i l ->
      Cfg.Builder.push b l
        (Dvs_ir.Instr.Binop (Dvs_ir.Instr.Add, 2, 2, 1));
      Cfg.Builder.set_term b l
        (Cfg.Jump (if i = k - 1 then tail else chain.(i + 1))))
    chain;
  Cfg.Builder.push b tail (Dvs_ir.Instr.Binop (Dvs_ir.Instr.Sub, 1, 1, 3));
  Cfg.Builder.set_term b tail (Cfg.Branch (1, chain.(0), halt));
  Cfg.Builder.set_term b halt Cfg.Halt;
  let cfg = Cfg.Builder.finish b ~entry in
  Alcotest.(check int) "edge count" n_edges (Array.length (Cfg.edges cfg));
  cfg

(* The low field holds edge + 1 in [0 .. n_edges]: 2^k - 1 edges fit in
   k bits, 2^k edges need k + 1. *)
let test_steps_edge_bits_boundary () =
  List.iter
    (fun (n_edges, bits) ->
      let cfg = loop_cfg ~n_edges in
      let tape =
        check_steps
          (Printf.sprintf "%d edges" n_edges)
          machine cfg ~memory:[||]
      in
      Alcotest.(check int)
        (Printf.sprintf "%d edges: edge_bits" n_edges)
        bits tape.Tape.edge_bits;
      (* Every edge is traversed, the last one (tail -> halt) last. *)
      Array.iteri
        (fun e pos ->
          if pos = max_int then Alcotest.failf "edge %d never traversed" e;
          if Tape.edge_at tape pos <> e then
            Alcotest.failf "first_edge_pos of edge %d is wrong" e)
        tape.Tape.first_edge_pos)
    [ (7, 3); (8, 4); (15, 4); (16, 5) ]

(* A tape holds one word per position plus a constant: its own words,
   beyond the variants, [first_edge_pos] and the final architectural
   state, are at most [positions + 16]. *)
let test_tape_words () =
  let config = Dvs_workloads.Workload.eval_config () in
  List.iter
    (fun name ->
      let w = Dvs_workloads.Workload.find name in
      let cfg, _, memory =
        Dvs_workloads.Workload.load w
          ~input:(Dvs_workloads.Workload.default_input w)
      in
      let tape = Summary.tape (Summary.create config cfg ~memory) in
      let words x = Obj.reachable_words (Obj.repr x) in
      let own =
        words tape - words tape.Tape.variants
        - words tape.Tape.first_edge_pos - words tape.Tape.registers
        - words tape.Tape.memory
      in
      let positions = Tape.positions tape in
      if own > positions + 16 then
        Alcotest.failf "%s: %d words of its own for %d positions" name own
          positions)
    [ "adpcm"; "gsm"; "mpeg" ]

(* Every replay result and every pinned run owns its final registers and
   memory: no alias of the tape's arrays nor of another result's.  The
   session's baselines keep the tape's arrays themselves, so a replay
   copies the final state once: it allocates at most one image, the
   registers, its checkpoints and its copy of the schedule. *)
let test_results_own_state () =
  let config = Dvs_workloads.Workload.eval_config () in
  let w = Dvs_workloads.Workload.find "mpeg" in
  let cfg, _, memory =
    Dvs_workloads.Workload.load w
      ~input:(Dvs_workloads.Workload.default_input w)
  in
  let s = Summary.create config cfg ~memory in
  let tape = Summary.tape s in
  let n_edges = Summary.n_edges s in
  let edge_mode = Array.make n_edges None in
  let changed = Array.init n_edges (fun i -> if i = 0 then Some 2 else None) in
  let first = Summary.replay s ~entry_mode:1 ~edge_mode in
  let replays =
    [ ("replay", first);
      ("replay, another entry mode", Summary.replay s ~entry_mode:0 ~edge_mode);
      ( "incremental, same schedule",
        Summary.replay ~against:first.Summary.token s ~entry_mode:1
          ~edge_mode );
      ( "incremental, one edge changed",
        Summary.replay ~against:first.Summary.token s ~entry_mode:1
          ~edge_mode:changed ) ]
  in
  let blocks = Array.length (Cfg.blocks cfg) in
  let pinned =
    List.init (Dvs_power.Mode.size config.Config.mode_table) (fun mode ->
        ( Printf.sprintf "pinned at mode %d" mode,
          Summary.replay_pinned s ~mode ~time:(Array.make blocks 0.0)
            ~energy:(Array.make blocks 0.0) ))
  in
  let all =
    List.map (fun (what, r) -> (what, r.Summary.stats)) replays @ pinned
  in
  List.iteri
    (fun i (what, (st : Cpu.run_stats)) ->
      if
        st.Cpu.memory == tape.Tape.memory
        || st.Cpu.registers == tape.Tape.registers
      then Alcotest.failf "%s: shares the tape's final state" what;
      if st.Cpu.memory <> tape.Tape.memory then
        Alcotest.failf "%s: memory differs from the tape's" what;
      List.iteri
        (fun k (other, (o : Cpu.run_stats)) ->
          if k < i
             && (o.Cpu.memory == st.Cpu.memory
                || o.Cpu.registers == st.Cpu.registers)
          then Alcotest.failf "%s shares its state with %s" what other)
        all)
    all;
  let image = Array.length tape.Tape.memory + 1
  and regs = Array.length tape.Tape.registers + 1 in
  let positions = Summary.positions s in
  let stride = Int.max 64 (positions / 256) in
  let checkpoints = (positions + stride - 1) / stride in
  (* A checkpoint is a pair, the state record, its float record and its
     copy of the pending-register times, collected in a list, reversed
     and stored in an array. *)
  let checkpoint = 3 + 12 + 12 + regs + 3 + 3 + 1 in
  let budget =
    image + regs + (checkpoints * checkpoint) + (n_edges + 1) + 512
  in
  let words, _ =
    Test_store.allocated_words (fun () ->
        Summary.replay s ~entry_mode:1 ~edge_mode)
  in
  if words > float_of_int budget then
    Alcotest.failf
      "one replay allocated %.0f words, over %d (an image of %d, registers \
       %d, %d checkpoints)"
      words budget image regs checkpoints

(* --- splicing against an evicted baseline ----------------------------- *)

(* A session keeps the 8 most recently used baselines: after one replay
   and 8 newer ones, the first token names nothing, and a replay against
   it must be a plain full replay (nothing spliced) with the same result
   to the bit. *)
let spliced_segments obs =
  Dvs_obs.Metrics.Counter.value
    (Dvs_obs.Metrics.counter (Dvs_obs.metrics obs)
       ~stability:Dvs_obs.Metrics.Volatile "sim.spliced_segments")

let evicting_schedules ~seed cfg =
  let rng = Random.State.make [| 0xe71c; seed |] in
  let kept = random_schedule rng cfg in
  let newer = List.init 8 (fun _ -> random_schedule rng cfg) in
  (kept, newer, mutate rng kept)

let test_replay_against_evicted () =
  for seed = 0 to 4 do
    let cfg, mem = program ~seed in
    let s = Summary.create machine cfg ~memory:mem in
    let kept, newer, probe = evicting_schedules ~seed cfg in
    let replay ?obs ?against (sc : Schedule.t) =
      Summary.replay ?obs ?against s ~entry_mode:sc.Schedule.entry_mode
        ~edge_mode:(Array.map Option.some sc.Schedule.edge_mode)
    in
    let token = (replay kept).Summary.token in
    List.iter (fun sc -> ignore (replay sc)) newer;
    let obs = Dvs_obs.metrics_only () in
    let r = replay ~obs ~against:token probe in
    let what = Printf.sprintf "seed %d" seed in
    check_stats what (replay probe).Summary.stats r.Summary.stats;
    check_stats what (direct cfg mem probe) r.Summary.stats;
    if spliced_segments obs <> 0 then
      Alcotest.failf "%s: spliced against an evicted baseline" what
  done

let test_check_against_evicted () =
  for seed = 0 to 4 do
    let cfg, mem = program ~seed in
    let session = Verify.Session.create machine cfg ~memory:mem in
    let kept, newer, probe = evicting_schedules ~seed cfg in
    let check ?obs ?against schedule =
      Verify.Session.check ?obs ?against session ~schedule ~deadline:1.0
        ~predicted_energy:1e-6
    in
    let evicted = check kept in
    List.iter (fun sc -> ignore (check sc)) newer;
    let obs = Dvs_obs.metrics_only () in
    let v = check ~obs ~against:evicted probe in
    let plain = check probe in
    let what = Printf.sprintf "seed %d" seed in
    check_stats what plain.Verify.stats v.Verify.stats;
    check_stats what (direct cfg mem probe) v.Verify.stats;
    if bits v.Verify.energy_error <> bits plain.Verify.energy_error then
      Alcotest.failf "%s: energy_error differs" what;
    if v.Verify.meets_deadline <> plain.Verify.meets_deadline then
      Alcotest.failf "%s: meets_deadline differs" what;
    if v.Verify.token = 0 || v.Verify.token = evicted.Verify.token then
      Alcotest.failf "%s: bad token %d" what v.Verify.token;
    if spliced_segments obs <> 0 then
      Alcotest.failf "%s: spliced against an evicted report" what
  done

let suite =
  [ Alcotest.test_case "session matches cycle-accurate (25 seeds)" `Slow
      test_session_matches;
    Alcotest.test_case "incremental splice matches (25 seeds)" `Slow
      test_incremental_matches;
    Alcotest.test_case "cold vs warm sweep equality (jobs 1/4)" `Slow
      test_sweep_cold_vs_warm;
    Alcotest.test_case "session reuse across a grid" `Quick
      test_session_reuse_across_grid;
    Alcotest.test_case "crash injection stays exact (jobs 1/4)" `Slow
      test_fault_injection_exact;
    Alcotest.test_case "deadline tolerance boundary" `Quick
      test_deadline_tolerance;
    Alcotest.test_case "tape steps = oracle: 15 workload inputs" `Slow
      test_steps_workloads;
    Alcotest.test_case "tape steps = oracle: 25 seeded programs" `Quick
      test_steps_seeded;
    Alcotest.test_case "tape steps at the edge_bits boundary" `Quick
      test_steps_edge_bits_boundary;
    Alcotest.test_case "tape holds one word per position" `Quick
      test_tape_words;
    Alcotest.test_case "replays own their final state, copied once" `Quick
      test_results_own_state;
    Alcotest.test_case "replay against an evicted baseline" `Quick
      test_replay_against_evicted;
    Alcotest.test_case "check against an evicted report" `Quick
      test_check_against_evicted ]
