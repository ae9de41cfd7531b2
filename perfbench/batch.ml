(* The batch workloads.  A job is one program through its whole deadline
   grid — the Table-4 deadlines of [Deadlines.sweep_of_profile] plus the
   two saturation probes — exactly one [dvstool reproduce W].  An
   iteration is one job per paper program on its default input (the
   Table-4 set), in an order drawn from the seed.

   - [Cold] (table4-cold): MiniC source through [Dvs_store.Exec] to
     verified schedules, into an empty store created for the iteration.
   - [Unfiltered] (unfiltered-sweep): [Pipeline.optimize_sweep] with the
     edge filter off and no store; profiles and verification sessions
     are rebuilt before every iteration, outside the timed jobs.
   - [Warm] (table4-warm): the [Cold] job replayed from a store that
     set-up filled: no simulation and no LP solve in the timed jobs.

   Every iteration gets a fresh [Lp_cache], fresh profiles and sessions
   (or a fresh store), and, when traced, one fresh [Dvs_obs] bundle per
   job.  Nothing is shared through process-global tables. *)

module Pipeline = Dvs_core.Pipeline
module Verify = Dvs_core.Verify
module Exec = Dvs_store.Exec
module Store = Dvs_store.Store
module Workload = Dvs_workloads.Workload
module Rng = Dvs_workloads.Rng

type kind = Cold | Unfiltered | Warm

let names = [ "adpcm"; "epic"; "gsm"; "mpeg"; "ghostscript"; "mpg123" ]

(* The programs of a workload.  unfiltered-sweep leaves out adpcm: its
   unfiltered grid is one 2.9 s job, longer than the host's fast and slow
   spells, so the calibration samples on either side of it (see Calib)
   do not tell how fast the host ran during it, and its reading moved
   jobs_per_s by 10-20% between runs. *)
let programs = function
  | Unfiltered -> List.filter (fun n -> n <> "adpcm") names
  | Cold | Warm -> names

(* The paper-equivalent regulator at this dynamic scale (0.4 uF), as
   [dvstool reproduce] uses by default. *)
let machine =
  Workload.eval_config ~mode_table:Dvs_power.Mode.xscale3
    ~regulator:(Dvs_power.Switch_cost.regulator ~capacitance:0.4e-6 ())
    ()

let regulator = machine.Dvs_machine.Config.regulator

let n_modes = Dvs_power.Mode.size machine.Dvs_machine.Config.mode_table

let pipeline_config ~filter ~obs ~lp_cache =
  let solver = Dvs_milp.Solver.Config.make ~jobs:1 ~cache:lp_cache () in
  Pipeline.Config.make ~filter ~solver () |> Pipeline.Config.with_obs obs

let fresh_lp_cache () = Dvs_milp.Lp_cache.create ~max_entries:16384 ()

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let profile_instrs (p : Dvs_profile.Profile.t) =
  Array.fold_left
    (fun acc (r : Dvs_machine.Cpu.run_stats) -> acc + r.Dvs_machine.Cpu.dyn_instrs)
    0 p.Dvs_profile.Profile.runs

type job = {
  prog : Checks.program;
  profile : Dvs_profile.Profile.t;
  deadlines : float array;
  results : Pipeline.result array;
  wall : float;  (** the whole job, seconds *)
  compile_s : float;
  profile_s : float;  (** the profile call: [Exec.profile] or none *)
  record_s : float;  (** verification-session recordings inside it *)
  records : int;
  exec_s : float;  (** the pipeline call, store-backed or not *)
}

(* ---- jobs ---------------------------------------------------------------- *)

let store_job ~obs ~root ~lp_cache (prog : Checks.program) =
  let t0 = Stats.now () in
  let (cfg, _), compile_s =
    Stats.time (fun () -> Dvs_lang.Lower.compile_string prog.Checks.source)
  in
  let store = Store.open_ ~obs ~root () in
  let profile, profile_s =
    Stats.time (fun () ->
        Exec.profile ~store
          ~source:(prog.Checks.name ^ ":" ^ prog.Checks.input)
          machine cfg ~memory:prog.Checks.memory)
  in
  let deadlines = Dvs_workloads.Deadlines.sweep_of_profile profile in
  let record_s = ref 0.0 and records = ref 0 in
  let session () =
    let s, d =
      Stats.time (fun () ->
          Verify.Session.create machine cfg ~memory:prog.Checks.memory)
    in
    record_s := !record_s +. d;
    incr records;
    s
  in
  let sw, exec_s =
    Stats.time (fun () ->
        Exec.optimize_sweep ~store
          ~config:(pipeline_config ~filter:true ~obs ~lp_cache)
          ~verify_config:machine ~profile ~session machine cfg
          ~memory:prog.Checks.memory ~deadlines)
  in
  { prog; profile; deadlines; results = sw.Pipeline.results;
    wall = Stats.now () -. t0; compile_s; profile_s; record_s = !record_s;
    records = !records; exec_s }

(* Per-iteration state of the unfiltered workload, built untimed. *)
type ready = {
  rprog : Checks.program;
  cfg : Dvs_ir.Cfg.t;
  rprofile : Dvs_profile.Profile.t;
  session : Verify.Session.t;
  rdeadlines : float array;
  prep_compile_s : float;
  prep_profile_s : float;
  prep_record_s : float;
}

let ready (prog : Checks.program) =
  let (cfg, _), prep_compile_s =
    Stats.time (fun () -> Dvs_lang.Lower.compile_string prog.Checks.source)
  in
  let rprofile, prep_profile_s =
    Stats.time (fun () ->
        Dvs_profile.Profile.collect machine cfg ~memory:prog.Checks.memory)
  in
  let session, prep_record_s =
    Stats.time (fun () ->
        Verify.Session.create machine cfg ~memory:prog.Checks.memory)
  in
  { rprog = prog; cfg; rprofile; session;
    rdeadlines = Dvs_workloads.Deadlines.sweep_of_profile rprofile;
    prep_compile_s; prep_profile_s; prep_record_s }

let unfiltered_job ~obs ~lp_cache r =
  let t0 = Stats.now () in
  let sw, exec_s =
    Stats.time (fun () ->
        Pipeline.optimize_sweep
          ~config:(pipeline_config ~filter:false ~obs ~lp_cache)
          ~verify_config:machine ~profile:r.rprofile ~session:r.session
          machine r.cfg ~memory:r.rprog.Checks.memory ~deadlines:r.rdeadlines)
  in
  { prog = r.rprog; profile = r.rprofile; deadlines = r.rdeadlines;
    results = sw.Pipeline.results; wall = Stats.now () -. t0;
    compile_s = 0.0; profile_s = 0.0; record_s = 0.0; records = 0; exec_s }

(* ---- traced extras --------------------------------------------------------- *)

(* Model building and the continuous bound, timed by the benchmark on
   the job's own model, outside the job's wall. *)
let probe_model ~filter a (j : job) =
  let d_loosest = Array.fold_left Float.max neg_infinity j.deadlines in
  let cats =
    [ { Dvs_core.Formulation.profile = j.profile; weight = 1.0;
        deadline = d_loosest } ]
  in
  let config =
    pipeline_config ~filter ~obs:Dvs_obs.disabled ~lp_cache:(fresh_lp_cache ())
  in
  let prep, prepare_s =
    Stats.time (fun () -> Pipeline.prepare ~config ~regulator cats)
  in
  let f = prep.Pipeline.prep_formulation in
  let (), bound_s =
    Stats.time (fun () ->
        let rx = Dvs_core.Relaxation.prepare f ~regulator cats in
        Array.iter
          (fun d ->
            ignore (Dvs_core.Relaxation.bound rx ~deadlines_us:[| d *. 1e6 |]))
          j.deadlines)
  in
  Layers.add a "dvs.prepare_s" prepare_s;
  Layers.add a "relaxation.bound_s" bound_s;
  Layers.add_model a prep

(* Wall-time split of one traced job, plus its counters. *)
let account a ~kind ~obs ~before ~after (j : job) =
  let hits0 name = Layers.counter obs name > 0.0 in
  let s = Layers.add_job_counters a obs in
  Layers.add_gc a ~before ~after;
  let program_s = Layers.milp_s s +. Layers.verify_s s +. Layers.dvs_s s in
  Layers.add a "exec.self_s" (j.exec_s -. j.record_s -. program_s);
  Layers.add a "other.self_s"
    (j.wall -. j.compile_s -. j.profile_s -. j.exec_s);
  let profile_hit = hits0 "store.sim_hits" in
  let sweep_hit = hits0 "store.sweep_hits" in
  Layers.add a "store.replay_s"
    ((if profile_hit then j.profile_s else 0.0)
    +. if sweep_hit then j.exec_s else 0.0);
  (* Cycle-accurate simulations in the job: the pinned per-mode profile
     runs on a store miss, and each session recording. *)
  let profiled = kind <> Unfiltered && not profile_hit in
  let per_run = (j.profile.Dvs_profile.Profile.runs.(0)).Dvs_machine.Cpu.dyn_instrs in
  Layers.add a "machine.sim_runs"
    (float_of_int ((if profiled then n_modes else 0) + j.records));
  Layers.add a "machine.dyn_instrs"
    (float_of_int
       ((if profiled then profile_instrs j.profile else 0) + (j.records * per_run)));
  if profiled then begin
    Layers.add a "sim.instrs" (float_of_int (profile_instrs j.profile));
    Layers.add a "sim.s" j.profile_s
  end;
  if kind <> Unfiltered then begin
    Layers.add a "loop.compile_s" j.compile_s;
    Layers.add a "loop.compile_n" 1.0;
    Layers.add a "loop.profile_s" j.profile_s;
    Layers.add a "loop.profile_n" 1.0
  end;
  Layers.add a "loop.record_s" j.record_s;
  Layers.add a "loop.record_n" (float_of_int j.records);
  probe_model ~filter:(kind <> Unfiltered) a j

(* ---- the run ---------------------------------------------------------------- *)

(* What an iteration keeps of a job once its outputs are checked: the
   results themselves are dropped, so the heap does not grow with the
   run. *)
type summary = {
  skey : string;  (** program:input *)
  sname : string;
  swall : float;
  sschedules : string list;
}

type iteration = {
  traced : bool;
  jobs : summary list;
  allocs : (string * float) list;  (** words per program:input *)
  nodes : (string * (float * float)) list;
      (** traced, per program:input: (nodes, pivots) *)
}

let schedules (j : job) =
  Array.to_list j.results
  |> List.map (fun (r : Pipeline.result) ->
         match r.Pipeline.schedule with
         | Some s -> Dvs_core.Schedule.to_string s
         | None -> "-")

let run kind ~seed ~seconds ~trace ~work =
  let rng = Rng.create seed in
  let make_progs () =
    List.map
      (fun n ->
        let w = Workload.find n in
        let p = Checks.program machine w ~input:(Workload.default_input w) in
        ignore (Lazy.force p.Checks.reference);
        p)
      (programs kind)
  in
  let a = Layers.acc () in
  let setup_reps = ref [] and setup_ref = ref [] in
  (* One set-up repetition, run as [parts]: one per program where the
     set-up is long enough to outlast the host's spells (see Calib). *)
  let setup parts =
    let w = Calib.stopwatch () in
    let rs = List.map (Calib.part w) parts in
    let raw, at_reference = Calib.stop w in
    setup_reps := raw :: !setup_reps;
    setup_ref := at_reference :: !setup_ref;
    rs
  in
  let note_setup_profile (j : job) =
    Layers.add a "setup.profile_s" j.profile_s;
    Layers.add a "setup.profile_n" 1.0;
    Layers.add a "setup.record_s" j.record_s;
    Layers.add a "setup.record_n" (float_of_int j.records);
    Layers.add a "sim.instrs" (float_of_int (profile_instrs j.profile));
    Layers.add a "sim.s" j.profile_s
  in
  (* Set-up where it is not already repeated per iteration: table4-cold
     compiles the programs, fills their inputs and computes the reference
     outputs (nine times: it is short); table4-warm fills a fresh store
     with the whole cold grid (three times). *)
  let all_progs, warm_root =
    match kind with
    | Cold ->
      let ps = ref [] in
      for _ = 1 to 9 do
        ps := List.hd (setup [ make_progs ])
      done;
      (!ps, None)
    | Unfiltered -> (make_progs (), None)
    | Warm ->
      let ps = make_progs () in
      let root = ref "" in
      for k = 1 to 3 do
        Stats.rm_rf !root;
        root := Filename.concat work (Printf.sprintf "warm-%d" k);
        let lp_cache = fresh_lp_cache () in
        let jobs =
          setup
            (List.map
               (fun p () -> store_job ~obs:Dvs_obs.disabled ~root:!root ~lp_cache p)
               ps)
        in
        if k = 3 then List.iter note_setup_profile jobs
      done;
      (ps, Some !root)
  in
  let checks = Checks.create () in
  let attempted = ref 0 and failed = ref 0 in
  let check_job (j : job) =
    Array.iteri
      (fun i (r : Pipeline.result) ->
        incr attempted;
        let o = Checks.check checks j.prog r ~deadline:j.deadlines.(i) in
        if not o.Checks.ok then begin
          incr failed;
          Report.note_failure "%s:%s deadline %.6g s: %s" j.prog.Checks.name
            j.prog.Checks.input j.deadlines.(i) o.Checks.why
        end)
      j.results
  in
  let iterations = ref [] in
  let untraced_s = ref 0.0 and traced_s = ref 0.0 in
  let n_untraced = ref 0 and n_traced = ref 0 in
  let job_ms = ref [] and alloc = ref 0.0 in
  let job_ref_ms = ref [] and untraced_ref_s = ref 0.0 and traced_ref_s = ref 0.0 in
  let store_bytes = ref [] in
  let k = ref 0 in
  let elapsed () = !untraced_s +. !traced_s in
  let more () =
    if trace then !n_untraced = 0 || !n_traced = 0 || elapsed () < seconds
    else !k = 0 || elapsed () < seconds
  in
  while more () do
    incr k;
    let traced = trace && !n_untraced > 0 && elapsed () >= seconds /. 2.0 in
    let order = shuffle rng all_progs in
    let root =
      match (kind, warm_root) with
      | Cold, _ ->
        let d = Filename.concat work (Printf.sprintf "cold-%d" !k) in
        Stats.rm_rf d;
        d
      | Warm, Some r -> r
      | _ -> ""
    in
    let readies =
      match kind with
      | Unfiltered ->
        let rs = setup (List.map (fun p () -> ready p) order) in
        List.iter
          (fun r ->
            Layers.add a "setup.compile_s" r.prep_compile_s;
            Layers.add a "setup.compile_n" 1.0;
            Layers.add a "setup.profile_s" r.prep_profile_s;
            Layers.add a "setup.profile_n" 1.0;
            Layers.add a "setup.record_s" r.prep_record_s;
            Layers.add a "setup.record_n" 1.0;
            Layers.add a "sim.instrs" (float_of_int (profile_instrs r.rprofile));
            Layers.add a "sim.s" r.prep_profile_s)
          rs;
        rs
      | _ -> []
    in
    let lp_cache = fresh_lp_cache () in
    let allocs = ref [] and nodes = ref [] in
    let jobs =
      List.mapi
        (fun i (prog : Checks.program) ->
          let obs = if traced then Layers.traced_obs () else Dvs_obs.disabled in
          let c = Calib.mark () in
          let before = Stats.gc () in
          let j =
            match kind with
            | Unfiltered -> unfiltered_job ~obs ~lp_cache (List.nth readies i)
            | Cold | Warm -> store_job ~obs ~root ~lp_cache prog
          in
          let after = Stats.gc () in
          let words = Stats.allocated_words ~before ~after in
          let key = prog.Checks.name ^ ":" ^ prog.Checks.input in
          allocs := (key, words) :: !allocs;
          if traced then begin
            traced_s := !traced_s +. j.wall;
            Calib.scaled c (fun k -> traced_ref_s := !traced_ref_s +. (j.wall *. k));
            account a ~kind ~obs ~before ~after j;
            nodes :=
              ( key,
                (Layers.counter obs "solver.nodes",
                 Layers.counter obs "solver.lp_pivots") )
              :: !nodes
          end
          else begin
            untraced_s := !untraced_s +. j.wall;
            job_ms := (j.wall *. 1e3) :: !job_ms;
            Calib.scaled c (fun k ->
                untraced_ref_s := !untraced_ref_s +. (j.wall *. k);
                job_ref_ms := (j.wall *. k *. 1e3) :: !job_ref_ms);
            alloc := !alloc +. words
          end;
          j)
        order
    in
    if traced then incr n_traced else incr n_untraced;
    List.iter check_job jobs;
    if traced && root <> "" then
      store_bytes :=
        float_of_int (Store.disk_stats (Store.open_ ~root ())).Store.bytes
        :: !store_bytes;
    if kind = Cold then Stats.rm_rf root;
    let jobs =
      List.map
        (fun (j : job) ->
          { skey = j.prog.Checks.name ^ ":" ^ j.prog.Checks.input;
            sname = j.prog.Checks.name; swall = j.wall;
            sschedules = schedules j })
        jobs
    in
    iterations :=
      { traced; jobs; allocs = !allocs; nodes = !nodes } :: !iterations
  done;
  ignore (Calib.mark ());
  Option.iter Stats.rm_rf warm_root;
  let iterations = List.rev !iterations in
  (* ---- per-layer values ---- *)
  let per_call what =
    let g = Layers.get a in
    if g ("loop." ^ what ^ "_n") > 0.0 then
      g ("loop." ^ what ^ "_s") /. g ("loop." ^ what ^ "_n")
    else Stats.ratio (g ("setup." ^ what ^ "_s")) (g ("setup." ^ what ^ "_n"))
  in
  let traced_jobs = !n_traced * List.length all_progs in
  let untraced_jobs = !n_untraced * List.length all_progs in
  let instr_count =
    Stats.mean
      (List.map
         (fun (p : Checks.program) ->
           float_of_int
             (Dvs_ir.Opt.instruction_count
                (fst (Dvs_lang.Lower.compile_string p.Checks.source))))
         all_progs)
  in
  let layers =
    if not trace then []
    else
      Layers.per_job a ~jobs:traced_jobs
        ~extra:
          [ ("lang.compile_ms", 1e3 *. per_call "compile");
            ("ir.instr_count", instr_count);
            ("profile.collect_s", per_call "profile");
            ("verify.record_s", per_call "record");
            ( "machine.sim_minstr_per_s",
              Stats.ratio (Layers.get a "sim.instrs") (Layers.get a "sim.s") /. 1e6 );
            ("store.bytes", Stats.mean_or_zero !store_bytes);
            ( "trace.overhead_ms",
              1e3
              *. (Stats.ratio !traced_ref_s (float_of_int traced_jobs)
                 -. Stats.ratio !untraced_ref_s (float_of_int untraced_jobs)) ) ]
  in
  (* ---- agreement and determinism ---- *)
  let yes b = if b then "yes" else "NO" in
  (* Every (program:input) key carries one value in all the given
     iterations where it ran. *)
  let agree f its =
    let tbl = Hashtbl.create 16 in
    List.for_all
      (fun it ->
        List.for_all
          (fun (k, v) ->
            match Hashtbl.find_opt tbl k with
            | Some v0 -> v0 = v
            | None ->
              Hashtbl.replace tbl k v;
              true)
          (f it))
      its
  in
  let schedules_of it = List.map (fun s -> (s.skey, s.sschedules)) it.jobs in
  (* Traced iterations run slower, so walls compare untraced ones. *)
  let untraced_its = List.filter (fun it -> not it.traced) iterations in
  let first = List.hd untraced_its
  and last = List.nth untraced_its (List.length untraced_its - 1) in
  let wall (it : iteration) = Stats.sum (List.map (fun s -> s.swall) it.jobs) in
  let traced_its = List.filter (fun it -> it.traced) iterations in
  let repeat f =
    if List.length traced_its < 2 then "n/a (fewer than two traced iterations)"
    else yes (agree f traced_its)
  in
  let alloc_spread =
    List.map
      (fun n ->
        let ws =
          List.concat_map
            (fun it ->
              if it.traced then []
              else List.filter_map (fun (k, w) -> if k = n then Some w else None) it.allocs)
            iterations
        in
        Printf.sprintf "%s %.1f%%" n (100.0 *. Stats.spread ws))
      (List.sort_uniq compare
         (List.concat_map (fun it -> List.map fst it.allocs) iterations))
  in
  let per_program =
    List.map
      (fun n ->
        let ms =
          List.concat_map
            (fun it ->
              List.filter_map
                (fun s ->
                  if it.traced || s.sname <> n then None else Some (s.swall *. 1e3))
                it.jobs)
            iterations
        in
        Printf.sprintf "%s %.0f (%.0f-%.0f)" n (Stats.median ms)
          (List.fold_left Float.min infinity ms)
          (List.fold_left Float.max neg_infinity ms))
      (programs kind)
  in
  let lines =
    [ "untraced job ms per program, median (min-max): " ^ String.concat ", " per_program;
      Printf.sprintf "iterations: %d untraced, %d traced; outputs checked: %d distinct points"
        !n_untraced !n_traced checks.Checks.checked;
      Checks.margins checks;
      Printf.sprintf
        "first vs last untraced iteration: schedules agree %s; wall %.3f s \
         vs %.3f s (%+.1f%%, within 25%%: %s)"
        (yes (agree schedules_of [ first; last ])) (wall first) (wall last)
        (100.0 *. (Stats.ratio (wall last) (wall first) -. 1.0))
        (yes (Float.abs (Stats.ratio (wall last) (wall first) -. 1.0) <= 0.25));
      Printf.sprintf
        "determinism across iterations, per program:input: schedules and \
         energy_saving_pct repeat %s"
        (yes (agree schedules_of iterations));
      Printf.sprintf
        "determinism across traced iterations: milp.nodes repeat %s, lp.pivots repeat %s"
        (repeat (fun it -> List.map (fun (n, (x, _)) -> (n, x)) it.nodes))
        (repeat (fun it -> List.map (fun (n, (_, y)) -> (n, y)) it.nodes));
      "allocation spread per program:input across untraced iterations (max-min)/median: "
      ^ String.concat ", " alloc_spread ]
  in
  { Report.setup_reps = !setup_reps; job_ms = !job_ms; timed_s = !untraced_s;
    setup_ref = !setup_ref; job_ref_ms = !job_ref_ms; timed_ref_s = !untraced_ref_s;
    attempted = !attempted; failed = !failed; savings = Checks.savings checks;
    alloc_words = !alloc; layers; lines }
