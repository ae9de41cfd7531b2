(* service-mix: an in-process [dvsd] ([Daemon.start] on a socket in the
   run's work directory, 2 worker domains) warmed during set-up on
   adpcm, gsm, mpeg and ghostscript.  A closed loop of 2 connections
   drives a seeded stream of single-deadline optimize requests; each
   connection sends its next request only when the previous reply
   arrived.  A job is one request.

   An iteration is [per_iteration] requests with ids that no earlier
   iteration used, so the daemon's idempotent reply cache never answers
   (asserted: [service.cache_replies] stays 0).  A request that was
   planned but never answered (connect or transport failure) counts as
   failed.  The daemon and its socket are torn down before the run
   returns.

   Output checks use the reply itself (the schedule does not cross the
   wire): a scheduled class, the deadline met in re-simulation within
   [Verify.deadline_tolerance], energy at most the best single mode's
   and at least the exact continuous bound, recomputed here from a
   local profile of the same program and input. *)

module P = Dvs_service.Protocol
module Daemon = Dvs_service.Daemon
module Engine = Dvs_service.Engine
module Client = Dvs_service.Client
module Rng = Dvs_workloads.Rng
module Workload = Dvs_workloads.Workload

(* The warmed programs, each on its default input. *)
let pairs =
  List.map
    (fun n -> (n, Workload.default_input (Workload.find n)))
    [ "adpcm"; "gsm"; "mpeg"; "ghostscript" ]

let connections = 2

(* Deadline positions are drawn from 0.05 to 0.95 in steps of 0.001, so
   near-duplicate requests are rare and batching stays incidental.  The
   draw is stratified: every iteration sends each program one request
   from each of [strata] equal slices of that range, in a seeded order,
   so every iteration offers the same mix of work. *)
let strata = 10

let per_iteration = strata * List.length pairs

let draw_frac rng stratum =
  let steps = 900 / strata in
  0.05 +. (0.001 *. float_of_int ((stratum * steps) + Rng.int rng steps))

type sample = {
  workload : string;
  input : string;
  frac : float;
  client_ms : float;
  reply : P.reply option;  (** [None]: never answered *)
}

type daemon = { d : Daemon.t; thread : Thread.t }

let stop t =
  Daemon.stop t.d;
  Thread.join t.thread

let start ~obs ~socket =
  let d =
    Daemon.start
      ~engine_config:(Engine.Config.make ~workers:2 ~obs ())
      ~socket ()
  in
  { d; thread = Thread.create Daemon.run d }

(* One closed-loop iteration; returns its samples and wall seconds. *)
let iteration ~socket ~rng ~iter =
  let cells =
    List.concat_map (fun p -> List.init strata (fun k -> (p, k))) pairs
    |> Batch.shuffle rng |> Array.of_list
  in
  let plan =
    Array.mapi
      (fun n ((workload, input), stratum) ->
        let frac = draw_frac rng stratum in
        ( { P.id = Printf.sprintf "it%d-rq%d" iter n;
            body =
              P.Optimize
                { workload; input = Some input; deadline_frac = frac;
                  budget_s = None; chaos = None } },
          (workload, input, frac) ))
      cells
  in
  let samples = Array.make per_iteration None in
  let next = ref 0 and mu = Mutex.create () in
  let take () =
    Mutex.lock mu;
    let k = !next in
    incr next;
    Mutex.unlock mu;
    k
  in
  let connection () =
    match Client.connect ~socket with
    | exception _ -> ()
    | c ->
      let rec go () =
        let k = take () in
        if k < per_iteration then begin
          let req, (workload, input, frac) = plan.(k) in
          let t0 = Stats.now () in
          let reply = try Some (Client.rpc c req) with _ -> None in
          samples.(k) <-
            Some
              { workload; input; frac;
                client_ms = (Stats.now () -. t0) *. 1e3; reply };
          if reply <> None then go ()
        end
      in
      go ();
      Client.close c
  in
  let t0 = Stats.now () in
  let threads = List.init connections (fun _ -> Thread.create connection ()) in
  List.iter Thread.join threads;
  let wall = Stats.now () -. t0 in
  let samples =
    Array.to_list
      (Array.mapi
         (fun k s ->
           match s with
           | Some s -> s
           | None ->
             let _, (workload, input, frac) = plan.(k) in
             { workload; input; frac; client_ms = nan; reply = None })
         samples)
  in
  (samples, wall)

(* ---- output checks ------------------------------------------------------- *)

type local = {
  profile : Dvs_profile.Profile.t;
  t_fast : float;
  t_slow : float;
}

let check_sample ~local ~bounds a (s : sample) =
  let l : local = local s.workload s.input in
  match s.reply with
  | None -> Error "never answered (connect or transport failure)"
  | Some reply -> (
    match reply.P.body with
    | P.Scheduled sm -> (
      let ok_class =
        match sm.P.cls with
        | P.Full | P.Time_degraded | P.Crash_degraded | P.Verify_degraded
        | P.Budget_degraded -> true
        | _ -> false
      in
      let deadline = l.t_fast +. (s.frac *. (l.t_slow -. l.t_fast)) in
      let bound = bounds a s.workload s.input l deadline in
      match (sm.P.measured_ms, sm.P.measured_uj, sm.P.savings_pct) with
      | _ when not ok_class -> Error ("no schedule: " ^ P.class_name sm.P.cls)
      | Some ms, Some uj, Some sv ->
        let tol = Checks.energy_tolerance in
        if sm.P.meets_deadline <> Some true
           || ms /. 1e3 > deadline *. (1.0 +. Dvs_core.Verify.deadline_tolerance)
        then Error (Printf.sprintf "misses its deadline: %.4f ms" ms)
        else if sv < -100.0 *. tol then
          Error (Printf.sprintf "energy above the best single mode (saving %.3f%%)" sv)
        else (
          match bound with
          | None -> Error "continuous relaxation infeasible at the deadline"
          | Some b when uj /. 1e6 < b *. (1.0 -. tol) ->
            Error (Printf.sprintf "energy %.4f uJ below the continuous bound" uj)
          | Some _ -> Ok sv)
      | _ -> Error "scheduled reply without a measured re-run")
    | P.Rejected_overloaded _ -> Error "shed (overloaded)"
    | P.Rejected_budget _ -> Error "budget exhausted"
    | P.Failed_reply m -> Error ("failed: " ^ m)
    | _ -> Error "unexpected reply")

(* ---- the run -------------------------------------------------------------- *)

let run ~seed ~seconds ~trace ~work =
  (* A peer that hung up must not kill the process on a write. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let rng = Rng.create seed in
  let socket k = Filename.concat work (Printf.sprintf "dvsd-%d.sock" k) in
  let setup_reps = ref [] and setup_ref = ref [] in
  let job_ref_ms = ref [] and untraced_ref_s = ref 0.0 in
  let traced_ref_ms = ref [] in
  let daemon = ref None in
  (* Totals over every daemon of the run, taken as each is torn down. *)
  let cache_replies = ref 0.0 and shed = ref 0.0 in
  let retire t =
    let o = Engine.obs (Daemon.engine t.d) in
    cache_replies := !cache_replies +. Layers.counter o "service.cache_replies";
    shed := !shed +. Layers.counter o "service.shed";
    stop t
  in
  (* Start a daemon and warm its models, one program per part; returns
     the seconds taken, raw and at reference speed.  A daemon whose
     warming fails is retired with the run. *)
  let launch ~obs k =
    Option.iter retire !daemon;
    daemon := None;
    let w = Calib.stopwatch () in
    let t = Calib.part w (fun () -> start ~obs ~socket:(socket k)) in
    daemon := Some t;
    List.iter
      (fun (wl, i) ->
        Calib.part w (fun () -> Engine.warm (Daemon.engine t.d) [ (wl, Some i) ]))
      pairs;
    Calib.stop w
  in
  let a = Layers.acc () in
  let result =
    Fun.protect
      ~finally:(fun () -> Option.iter retire !daemon)
      (fun () ->
        (* Set-up three times: start, warm (compile, profile, record a
           session per program), and keep the last daemon. *)
        for k = 1 to 3 do
          let raw, at_reference = launch ~obs:Dvs_obs.disabled k in
          setup_reps := raw :: !setup_reps;
          setup_ref := at_reference :: !setup_ref
        done;
        let samples = ref [] and untraced_s = ref 0.0 and alloc = ref 0.0 in
        let traced_samples = ref [] and traced_s = ref 0.0 in
        let iter = ref 0 and traced = ref false in
        let obs = ref Dvs_obs.disabled in
        let elapsed () = !untraced_s +. !traced_s in
        let more () =
          if trace then !traced_samples = [] || elapsed () < seconds
          else !iter = 0 || elapsed () < seconds
        in
        while more () do
          incr iter;
          if trace && (not !traced) && !samples <> [] && elapsed () >= seconds /. 2.0
          then begin
            (* The traced half runs on a daemon built with a tracing
               bundle; the untraced half's daemon is torn down. *)
            traced := true;
            obs := Layers.traced_obs ();
            ignore (launch ~obs:!obs 4)
          end;
          let d = Option.get !daemon in
          let c = Calib.mark () in
          let before = Stats.gc () in
          let ss, wall =
            iteration ~socket:(Daemon.socket d.d) ~rng ~iter:!iter
          in
          let after = Stats.gc () in
          if !traced then begin
            traced_s := !traced_s +. wall;
            traced_samples := ss @ !traced_samples;
            Calib.scaled c (fun f ->
                List.iter
                  (fun s ->
                    if Float.is_finite s.client_ms then
                      traced_ref_ms := (s.client_ms *. f) :: !traced_ref_ms)
                  ss);
            Layers.add_gc a ~before ~after
          end
          else begin
            untraced_s := !untraced_s +. wall;
            samples := ss @ !samples;
            Calib.scaled c (fun f ->
                untraced_ref_s := !untraced_ref_s +. (wall *. f);
                List.iter
                  (fun s ->
                    if Float.is_finite s.client_ms then
                      job_ref_ms := (s.client_ms *. f) :: !job_ref_ms)
                  ss);
            alloc := !alloc +. Stats.allocated_words ~before ~after
          end
        done;
        ignore (Calib.mark ());
        let d = Option.get !daemon in
        let latency =
          Layers.histogram (Engine.obs (Daemon.engine d.d)) "service.latency_seconds"
        in
        if !traced then ignore (Layers.add_job_counters a !obs);
        (!samples, !untraced_s, !alloc, !traced_samples, latency))
  in
  let samples, untraced_s, alloc, traced_samples, (lat_n, lat_sum) = result in
  let cache_replies = !cache_replies and shed = !shed in
  (* ---- checks, outside the timed region ---- *)
  let locals = Hashtbl.create 8 in
  let local w input =
    match Hashtbl.find_opt locals (w, input) with
    | Some l -> l
    | None ->
      let wl = Workload.find w in
      let (cfg, layout), compile_s =
        Stats.time (fun () -> Dvs_lang.Lower.compile_string wl.Workload.source)
      in
      let memory = wl.Workload.fill layout ~input in
      let profile, profile_s =
        Stats.time (fun () -> Dvs_profile.Profile.collect Batch.machine cfg ~memory)
      in
      let _, record_s =
        Stats.time (fun () ->
            Dvs_core.Verify.Session.create Batch.machine cfg ~memory)
      in
      Layers.add a "setup.record_s" record_s;
      Layers.add a "setup.record_n" 1.0;
      Layers.add a "setup.compile_s" compile_s;
      Layers.add a "setup.compile_n" 1.0;
      Layers.add a "setup.profile_s" profile_s;
      Layers.add a "setup.profile_n" 1.0;
      Layers.add a "ir.instr_count" (float_of_int (Dvs_ir.Opt.instruction_count cfg));
      Layers.add a "ir.programs" 1.0;
      Layers.add a "sim.instrs" (float_of_int (Batch.profile_instrs profile));
      Layers.add a "sim.s" profile_s;
      let n = Array.length profile.Dvs_profile.Profile.runs in
      let l =
        { profile;
          t_fast = Dvs_profile.Profile.pinned_time profile ~mode:(n - 1);
          t_slow = Dvs_profile.Profile.pinned_time profile ~mode:0 }
      in
      Hashtbl.replace locals (w, input) l;
      l
  in
  let bound_memo = Hashtbl.create 64 in
  let bounds a w input (l : local) deadline =
    match Hashtbl.find_opt bound_memo (w, input, deadline) with
    | Some b -> b
    | None ->
      let cats =
        [ { Dvs_core.Formulation.profile = l.profile; weight = 1.0; deadline } ]
      in
      let prep, prepare_s =
        Stats.time (fun () ->
            Dvs_core.Pipeline.prepare ~regulator:Batch.regulator cats)
      in
      let f = prep.Dvs_core.Pipeline.prep_formulation in
      let b, bound_s =
        Stats.time (fun () ->
            let rx = Dvs_core.Relaxation.prepare f ~regulator:Batch.regulator cats in
            Dvs_core.Relaxation.bound rx ~deadlines_us:[| deadline *. 1e6 |])
      in
      Layers.add a "probe.prepare_s" prepare_s;
      Layers.add a "probe.bound_s" bound_s;
      Layers.add a "probe.n" 1.0;
      Layers.add_model a prep;
      let b = Option.map (fun b -> b /. 1e6) b in
      Hashtbl.replace bound_memo (w, input, deadline) b;
      b
  in
  let failed = ref 0 and savings = ref [] in
  let all = samples @ traced_samples in
  List.iter
    (fun s ->
      match check_sample ~local ~bounds a s with
      | Ok sv -> savings := sv :: !savings
      | Error why ->
        incr failed;
        Report.note_failure "%s:%s frac %.3f: %s" s.workload s.input s.frac why)
    all;
  if cache_replies > 0.0 then begin
    incr failed;
    Report.note_failure "service.cache_replies = %.0f: a reply came from the idempotency cache"
      cache_replies
  end;
  (* ---- per-layer values ---- *)
  let answered ss = List.filter_map (fun s -> Option.map (fun r -> (s, r)) s.reply) ss in
  let mean_of f ss = Stats.mean_or_zero (List.map f ss) in
  let layers =
    if not trace then []
    else begin
      let tr = answered traced_samples in
      let n = List.length traced_samples in
      let g = Layers.get a in
      let per_probe k = Stats.ratio (g k) (g "probe.n") in
      let server_s =
        Stats.sum (List.map (fun (_, r) -> r.P.service_ms /. 1e3) tr)
      in
      let program_s = g "milp.solve_s" +. g "verify.check_s" +. g "dvs.self_s" in
      Layers.per_job a ~jobs:n
        ~extra:
          [ ("lang.compile_ms",
             1e3 *. Stats.ratio (g "setup.compile_s") (g "setup.compile_n"));
            ("ir.instr_count", Stats.ratio (g "ir.instr_count") (g "ir.programs"));
            ("profile.collect_s", Stats.ratio (g "setup.profile_s") (g "setup.profile_n"));
            ("verify.record_s", Stats.ratio (g "setup.record_s") (g "setup.record_n"));
            ("machine.sim_minstr_per_s", Stats.ratio (g "sim.instrs") (g "sim.s") /. 1e6);
            ("dvs.prepare_s", per_probe "probe.prepare_s");
            ("relaxation.bound_s", per_probe "probe.bound_s");
            ("dvs.independent_edges", per_probe "dvs.independent_edges");
            ("dvs.model_rows", per_probe "dvs.model_rows");
            ("dvs.model_cols", per_probe "dvs.model_cols");
            ("dvs.model_nnz", per_probe "dvs.model_nnz");
            ("service.queue_wait_ms", mean_of (fun (_, r) -> r.P.queue_ms) tr);
            ("service.server_ms", 1e3 *. Stats.ratio lat_sum lat_n);
            ( "service.transport_ms",
              mean_of
                (fun (s, r) -> s.client_ms -. r.P.queue_ms -. r.P.service_ms)
                tr );
            ( "service.batched_ratio",
              Stats.ratio
                (float_of_int (List.length (List.filter (fun (_, r) -> r.P.batched >= 2) tr)))
                (float_of_int (List.length tr)) );
            ("service.cache_replies", cache_replies);
            ("service.shed", shed);
            ( "other.self_s",
              Stats.ratio (server_s -. program_s) (float_of_int (Int.max 1 n)) );
            ( "trace.overhead_ms",
              Stats.mean_or_zero !traced_ref_ms -. Stats.mean_or_zero !job_ref_ms ) ]
    end
  in
  let lines =
    [ Printf.sprintf "requests: %d untraced, %d traced, over %d connections; %d answered"
        (List.length samples) (List.length traced_samples) connections
        (List.length (answered all));
      Printf.sprintf "service.cache_replies %.0f, service.shed %.0f" cache_replies shed ]
  in
  { Report.setup_reps = !setup_reps; setup_ref = !setup_ref; job_ref_ms = !job_ref_ms;
    timed_ref_s = !untraced_ref_s;
    job_ms = List.map (fun s -> s.client_ms) samples |> List.filter Float.is_finite;
    timed_s = untraced_s; attempted = List.length all; failed = !failed;
    savings = !savings; alloc_words = alloc; layers; lines }
