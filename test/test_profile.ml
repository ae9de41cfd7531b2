(* Profile.collect builds a profile from one recorded tape: the
   structural counts from the tape's block sequence, every mode's block
   costs from a pinned replay.  The oracle below is the profiler it
   replaced — one observer-driven cycle-accurate Cpu.run per mode — and
   the two must agree exactly: floats by bits, the order of [paths]
   included (it feeds the store fingerprint and the MILP's variable
   order). *)

module Cpu = Dvs_machine.Cpu
module Config = Dvs_machine.Config
module Cfg = Dvs_ir.Cfg
module Profile = Dvs_profile.Profile
module Workload = Dvs_workloads.Workload

(* ---- oracle: one pinned, observed cycle-accurate run per mode -------- *)

let oracle ?fuel config cfg ~memory =
  let open Profile in
  let n_modes = Dvs_power.Mode.size config.Config.mode_table in
  let n_blocks = Cfg.num_blocks cfg in
  let n_edges = Array.length (Cfg.edges cfg) in
  let exec_count = Array.make n_blocks 0 in
  let edge_count = Array.make n_edges 0 in
  let entry_count = ref 0 in
  let path_tbl : (path, int) Hashtbl.t = Hashtbl.create ~random:false 64 in
  let total_time = Array.make_matrix n_modes n_blocks 0.0 in
  let total_energy = Array.make_matrix n_modes n_blocks 0.0 in
  let runs =
    Array.init n_modes (fun m ->
        let last : (Cfg.label * float * float) option ref = ref None in
        (* Structural counting only once (mode 0). *)
        let count_structural = m = 0 in
        let prev_block : Cfg.label option ref = ref None in
        let prev_prev : Cfg.label option ref = ref None in
        let observer label ~via ~time ~energy =
          (match !last with
          | Some (j, t0, e0) ->
            total_time.(m).(j) <- total_time.(m).(j) +. (time -. t0);
            total_energy.(m).(j) <- total_energy.(m).(j) +. (energy -. e0)
          | None -> ());
          last := Some (label, time, energy);
          if count_structural then begin
            exec_count.(label) <- exec_count.(label) + 1;
            (match via with
            | Some src ->
              let idx = Cfg.edge_index cfg { Cfg.src; dst = label } in
              edge_count.(idx) <- edge_count.(idx) + 1
            | None -> incr entry_count);
            (match !prev_block with
            | Some i ->
              let p = { pred = !prev_prev; node = i; succ = label } in
              let cur =
                Option.value ~default:0 (Hashtbl.find_opt path_tbl p)
              in
              Hashtbl.replace path_tbl p (cur + 1)
            | None -> ());
            prev_prev := !prev_block;
            prev_block := Some label
          end
        in
        let rc = Cpu.Run_config.make ?fuel ~initial_mode:m ~observer () in
        let r = Cpu.run ~rc config cfg ~memory in
        (* Attribute the tail (last block entry to end of run). *)
        (match !last with
        | Some (j, t0, e0) ->
          total_time.(m).(j) <- total_time.(m).(j) +. (r.Cpu.time -. t0);
          total_energy.(m).(j) <- total_energy.(m).(j) +. (r.Cpu.energy -. e0)
        | None -> ());
        r)
  in
  { cfg; config; exec_count; edge_count; entry_count = !entry_count;
    paths = Hashtbl.fold (fun p c acc -> (p, c) :: acc) path_tbl [];
    total_time; total_energy; runs }

(* ---- exact comparison ------------------------------------------------- *)

let bits = Int64.bits_of_float

let check_profile what (expected : Profile.t) (actual : Profile.t) =
  let floats field e a =
    Array.iteri
      (fun m row ->
        Array.iteri
          (fun j x ->
            if bits x <> bits a.(m).(j) then
              Alcotest.failf "%s: %s.(%d).(%d) differs: %.17g vs %.17g" what
                field m j x
                a.(m).(j))
          row)
      e
  in
  floats "total_time" expected.Profile.total_time actual.Profile.total_time;
  floats "total_energy" expected.Profile.total_energy
    actual.Profile.total_energy;
  Array.iteri
    (fun m r ->
      Test_summary.check_stats
        (Printf.sprintf "%s: runs.(%d)" what m)
        r actual.Profile.runs.(m))
    expected.Profile.runs;
  if expected.Profile.exec_count <> actual.Profile.exec_count then
    Alcotest.failf "%s: exec_count differs" what;
  if expected.Profile.edge_count <> actual.Profile.edge_count then
    Alcotest.failf "%s: edge_count differs" what;
  Alcotest.(check int) (what ^ ": entry_count") expected.Profile.entry_count
    actual.Profile.entry_count;
  if expected.Profile.paths <> actual.Profile.paths then
    Alcotest.failf "%s: paths differ (values or order)" what;
  (* Everything else structurally (floats are bit-equal by now). *)
  if expected <> actual then
    Alcotest.failf "%s: profiles differ structurally" what;
  Alcotest.(check string)
    (what ^ ": fingerprint")
    (Dvs_store.Codec.profile_fingerprint expected)
    (Dvs_store.Codec.profile_fingerprint actual)

let agree what config cfg ~memory =
  check_profile what
    (oracle config cfg ~memory)
    (Profile.collect config cfg ~memory)

(* ---- the three program families --------------------------------------- *)

let workload_pairs () =
  List.concat_map
    (fun (w : Workload.t) -> List.map (fun i -> (w, i)) w.Workload.inputs)
    Workload.all

let test_workloads () =
  let machine = Workload.eval_config () in
  let pairs = workload_pairs () in
  Alcotest.(check int) "15 (workload, input) pairs" 15 (List.length pairs);
  List.iter
    (fun ((w : Workload.t), input) ->
      let cfg, _, mem = Workload.load w ~input in
      agree (w.Workload.name ^ "/" ^ input) machine cfg ~memory:mem)
    pairs

(* test_summary's tiny-cache family: every op kind occurs on the tape. *)
let test_seeded_programs () =
  for seed = 0 to 24 do
    let cfg, mem = Test_summary.program ~seed in
    agree (Printf.sprintf "seed %d" seed) Test_summary.machine cfg
      ~memory:mem
  done

(* Modeset instructions inside blocks: a pinned profile still pays their
   transitions, and both sides must attribute them to the same blocks. *)
let test_instrumented () =
  let cfg, mem = Test_summary.program ~seed:3 in
  let rng = Random.State.make [| 0x3d57 |] in
  let schedule = Test_summary.random_schedule rng cfg in
  let inst = Dvs_core.Instrument.apply schedule cfg in
  if Dvs_core.Instrument.static_modesets inst = 0 then
    Alcotest.fail "instrumented CFG has no Modeset";
  let p = Profile.collect Test_summary.machine inst ~memory:mem in
  if p.Profile.runs.(0).Cpu.mode_transitions = 0 then
    Alcotest.fail "pinned run executed no mode transition";
  agree "instrumented" Test_summary.machine inst ~memory:mem

(* A run that halts with a store miss in flight drains it at the end;
   the drain belongs to the last block entered. *)
let test_halt_drain () =
  let cfg, layout =
    Dvs_lang.Lower.compile_string
      "int a[2048]; int s; int i;\n\
       for (i = 0; i < 64; i = i + 1) { s = s + a[i * 16]; }\n\
       a[2000] = s;"
  in
  let mem = Array.make layout.Dvs_lang.Lower.memory_words 1 in
  let last_entry = ref 0.0 in
  let observer _ ~via:_ ~time ~energy:_ = last_entry := time in
  let r =
    Cpu.run
      ~rc:(Cpu.Run_config.make ~observer ())
      Test_summary.machine cfg ~memory:mem
  in
  if r.Cpu.time -. !last_entry < Test_summary.machine.Config.dram_latency /. 2.0
  then Alcotest.fail "the run does not end with a miss in flight";
  agree "halt drain" Test_summary.machine cfg ~memory:mem

let test_out_of_fuel () =
  let cfg, mem = Test_summary.program ~seed:0 in
  let raises what f =
    match f () with
    | exception Cpu.Out_of_fuel -> ()
    | _ -> Alcotest.failf "%s: expected Out_of_fuel" what
  in
  raises "oracle" (fun () ->
      oracle ~fuel:20 Test_summary.machine cfg ~memory:mem);
  raises "collect" (fun () ->
      Profile.collect ~fuel:20 Test_summary.machine cfg ~memory:mem)

(* ---- path order under a randomized hash seed ------------------------- *)

(* Re-execute the test binary with [OCAMLRUNPARAM=R] (hash tables created
   without [~random] get a random seed) and compare the child's adpcm
   profile fingerprint with ours: the fingerprint covers [paths] in
   order, so a randomized path table would change it. *)
let child_env_var = "DVS_PROFILE_TEST_CHILD"

let adpcm_fingerprint () =
  let w = Workload.find "adpcm" in
  let cfg, _, mem = Workload.load w ~input:(Workload.default_input w) in
  Dvs_store.Codec.profile_fingerprint
    (Profile.collect (Workload.eval_config ()) cfg ~memory:mem)

let child_main () =
  print_string ("fingerprint " ^ adpcm_fingerprint () ^ "\n");
  exit 0

let test_fingerprint_under_random_hashing () =
  let env =
    Unix.environment ()
    |> Array.to_list
    |> List.filter (fun kv ->
           not (String.starts_with ~prefix:"OCAMLRUNPARAM=" kv))
    |> Array.of_list
  in
  let env =
    Array.append env [| child_env_var ^ "=1"; "OCAMLRUNPARAM=R" |]
  in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env Sys.executable_name [| Sys.executable_name |] env
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  (* Other lines may precede ours (test-framework start-up output). *)
  let child =
    In_channel.input_all ic
    |> String.split_on_char '\n'
    |> List.find_map (fun l ->
           if String.starts_with ~prefix:"fingerprint " l then
             Some (String.sub l 12 (String.length l - 12))
           else None)
    |> Option.value ~default:"(none)"
  in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  Alcotest.(check bool) "child exited cleanly" true (status = Unix.WEXITED 0);
  Alcotest.(check string) "adpcm fingerprint under OCAMLRUNPARAM=R"
    (adpcm_fingerprint ()) child

let suite =
  [ Alcotest.test_case "tape profile = oracle: 15 workload inputs" `Slow
      test_workloads;
    Alcotest.test_case "tape profile = oracle: 25 seeded programs" `Quick
      test_seeded_programs;
    Alcotest.test_case "tape profile = oracle: Modeset instructions" `Quick
      test_instrumented;
    Alcotest.test_case "tape profile = oracle: drain at halt" `Quick
      test_halt_drain;
    Alcotest.test_case "both profilers run out of fuel" `Quick
      test_out_of_fuel;
    Alcotest.test_case "fingerprint stable under OCAMLRUNPARAM=R" `Quick
      test_fingerprint_under_random_hashing ]
