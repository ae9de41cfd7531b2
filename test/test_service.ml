(* dvsd service suite: protocol round-trips, the unified exit-code
   table, admission control, idempotent retries, budget-driven ladder
   descent, near-duplicate batching, poison containment, seeded chaos
   determinism across worker counts, and the socket daemon end to end.

   Everything runs on `ghostscript' (the smallest workload) so the
   warm-store builds and solves stay test-suite-sized. *)

module P = Dvs_service.Protocol
module Engine = Dvs_service.Engine
module Daemon = Dvs_service.Daemon
module Client = Dvs_service.Client
module Loadgen = Dvs_service.Loadgen
module Json = Dvs_obs.Json
module Pipeline = Dvs_core.Pipeline
module Workload = Dvs_workloads.Workload

let wl = "ghostscript"

let opt ?input ?budget_s ?chaos ?(frac = 0.5) id =
  { P.id;
    body =
      P.Optimize
        { workload = wl; input; deadline_frac = frac; budget_s; chaos } }

let with_engine ?(workers = 1) ?(queue_depth = 64) ?(batch_max = 1)
    ?default_budget_s f =
  let e =
    Engine.create
      (Engine.Config.make ~workers ~queue_depth ~batch_max ?default_budget_s
         ())
  in
  Fun.protect ~finally:(fun () -> Engine.stop e) (fun () -> f e)

let scheduled (r : P.reply) =
  match r.P.body with
  | P.Scheduled s -> s
  | _ -> Alcotest.failf "expected a scheduled reply for %s" r.P.id

(* --- protocol ---------------------------------------------------------- *)

let roundtrip_request r =
  match P.request_of_json (P.request_to_json r) with
  | Ok r' ->
    Alcotest.(check bool)
      "request round-trips" true
      (Json.equal (P.request_to_json r) (P.request_to_json r'))
  | Error e -> Alcotest.failf "request did not round-trip: %s" e

let roundtrip_reply r =
  match P.reply_of_json (P.reply_to_json r) with
  | Ok r' ->
    Alcotest.(check bool)
      "reply round-trips" true
      (Json.equal (P.reply_to_json r) (P.reply_to_json r'))
  | Error e -> Alcotest.failf "reply did not round-trip: %s" e

let test_protocol_roundtrip () =
  let chaos =
    P.chaos ~crash_rate:0.5 ~exhaust_rate:0.1 ~poison_rate:0.05 ~seed:9 ()
  in
  List.iter roundtrip_request
    [ opt "a";
      opt ~input:"default" ~budget_s:1.5 ~chaos ~frac:0.25 "b";
      { P.id = "c";
        body =
          P.Sweep
            { workload = wl; input = None; fracs = [ 0.2; 0.5; 0.8 ];
              budget_s = Some 3.0; chaos = Some chaos } };
      { P.id = "d"; body = P.Simulate { workload = wl; input = None; mode = 1 } };
      { P.id = "e"; body = P.Ping };
      { P.id = "f"; body = P.Stats };
      { P.id = "g"; body = P.Shutdown } ];
  let summary =
    { P.cls = P.Budget_degraded; rung = Some "rounded-lp";
      deadline_ms = 1.25; predicted_uj = Some 10.0; measured_uj = Some 10.5;
      measured_ms = Some 1.2; meets_deadline = Some true;
      savings_pct = Some 12.5 }
  in
  let reply body =
    { P.id = "x"; queue_ms = 1.0; service_ms = 2.0; batched = 2; body }
  in
  List.iter roundtrip_reply
    [ reply (P.Scheduled summary);
      reply (P.Sweep_points [ summary; { summary with P.cls = P.Full } ]);
      reply (P.Rejected_overloaded { queue_len = 4; queue_cap = 4 });
      reply (P.Rejected_budget { budget_s = 0.5; waited_s = 0.6 });
      reply (P.Failed_reply "boom"); reply P.Pong; reply P.Bye ];
  (* Unknown payloads fail loudly, not silently. *)
  (match P.request_of_json (Json.Obj [ ("id", Json.String "h") ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "op-less request should not parse");
  match
    P.request_of_json
      (Json.Obj [ ("id", Json.String "h"); ("op", Json.String "explode") ])
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown op should not parse"

let test_exit_codes () =
  let check ~strict cls expected =
    Alcotest.(check int)
      (Printf.sprintf "%s strict=%b" (P.class_name cls) strict)
      expected
      (P.exit_code ~strict cls)
  in
  (* The PR 2 table is preserved verbatim... *)
  check ~strict:false P.Full 0;
  check ~strict:false P.Time_degraded 0;
  check ~strict:false P.Crash_degraded 0;
  check ~strict:false P.Verify_degraded 0;
  check ~strict:false P.Infeasible 1;
  check ~strict:false P.No_schedule 2;
  check ~strict:true P.Time_degraded 3;
  check ~strict:true P.Crash_degraded 4;
  check ~strict:true P.Verify_degraded 5;
  (* ...and the service classes extend it: budget-degraded is a strict
     refusal like the other degradations, the hard failures are never
     success. *)
  check ~strict:false P.Budget_degraded 0;
  check ~strict:true P.Budget_degraded 6;
  check ~strict:false P.Overloaded 7;
  check ~strict:true P.Overloaded 7;
  check ~strict:false P.Budget_exhausted 8;
  check ~strict:true P.Failed 9;
  List.iter
    (fun c ->
      match P.class_of_name (P.class_name c) with
      | Some c' when c' = c -> ()
      | _ -> Alcotest.failf "class %s does not round-trip" (P.class_name c))
    P.all_classes

(* --- engine basics ----------------------------------------------------- *)

let test_optimize_and_simulate () =
  with_engine (fun e ->
      Engine.warm e [ (wl, None) ];
      let r = Engine.await (Engine.submit e (opt "opt-1")) in
      let s = scheduled r in
      Alcotest.(check bool) "scheduled" true (s.P.cls <> P.Failed);
      (match s.P.meets_deadline with
      | Some true -> ()
      | _ -> Alcotest.fail "schedule should verify against its deadline");
      (match (s.P.measured_uj, s.P.savings_pct) with
      | Some _, Some _ -> ()
      | _ -> Alcotest.fail "measured energy and savings should be reported");
      Alcotest.(check int) "solo request" 1 r.P.batched;
      (* Simulate answers from the warm profile's pinned runs. *)
      let sim =
        Engine.await
          (Engine.submit e
             { P.id = "sim-0";
               body = P.Simulate { workload = wl; input = None; mode = 0 } })
      in
      (match (scheduled sim).P.measured_ms with
      | Some ms -> Alcotest.(check bool) "pinned time > 0" true (ms > 0.0)
      | None -> Alcotest.fail "simulate should report a measured time");
      let bad =
        Engine.await
          (Engine.submit e
             { P.id = "sim-bad";
               body = P.Simulate { workload = wl; input = None; mode = 99 } })
      in
      (match bad.P.body with
      | P.Failed_reply _ -> ()
      | _ -> Alcotest.fail "out-of-range mode should fail");
      let missing =
        Engine.await
          (Engine.submit e
             { P.id = "missing";
               body =
                 P.Optimize
                   { workload = "no-such-benchmark"; input = None;
                     deadline_frac = 0.5; budget_s = None; chaos = None } })
      in
      match missing.P.body with
      | P.Failed_reply _ -> ()
      | _ -> Alcotest.fail "unknown workload should fail, not crash")

(* Warming a model without a store profiles in this process, and the
   model's verification session takes over that profile's recording
   instead of recording the program again. *)
let test_warm_session_from_profile () =
  with_engine (fun e ->
      Engine.warm e [ (wl, None) ];
      let count source =
        Dvs_obs.Metrics.Counter.value
          (Dvs_obs.Metrics.counter
             (Dvs_obs.metrics (Engine.obs e))
             ~stability:Dvs_obs.Metrics.Volatile
             ("service.model_session." ^ source))
      in
      Alcotest.(check int) "session from the profile" 1 (count "profile");
      Alcotest.(check int) "no second recording" 0 (count "recorded");
      let s = scheduled (Engine.await (Engine.submit e (opt "warm-1"))) in
      Alcotest.(check (option bool))
        "verifies on it" (Some true) s.P.meets_deadline)

let test_idempotent_replies () =
  with_engine (fun e ->
      Engine.warm e [ (wl, None) ];
      let r1 = Engine.await (Engine.submit e (opt "dup-1")) in
      let r2 = Engine.await (Engine.submit e (opt "dup-1")) in
      Alcotest.(check bool)
        "retry of a served id is answered from the reply cache" true
        (Json.equal (P.reply_to_json r1) (P.reply_to_json r2));
      (* Ping/Stats/Shutdown are control traffic, answered inline. *)
      let pong = Engine.await (Engine.submit e { P.id = "p"; body = P.Ping }) in
      (match pong.P.body with
      | P.Pong -> ()
      | _ -> Alcotest.fail "ping should pong");
      let stats =
        Engine.await (Engine.submit e { P.id = "s"; body = P.Stats })
      in
      match stats.P.body with
      | P.Stats_reply m -> (
        match Dvs_obs.Schema.validate_metrics m with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "stats snapshot invalid: %s" msg)
      | _ -> Alcotest.fail "stats should return a metrics snapshot")

let test_admission_control () =
  with_engine ~workers:1 ~queue_depth:2 ~default_budget_s:120.0 (fun e ->
      (* No warm-up: the first request pays the model build, which keeps
         the single worker busy while the queue fills behind it.  Wait
         for the worker to pick it up so the queue really holds only the
         later submissions. *)
      let h1 = Engine.submit e (opt "adm-1") in
      let rec wait_pickup n =
        if Engine.queue_len e > 0 then
          if n = 0 then Alcotest.fail "worker never dequeued the first job"
          else begin
            Thread.delay 0.01;
            wait_pickup (n - 1)
          end
      in
      wait_pickup 1000;
      let h2 = Engine.submit e (opt ~frac:0.3 "adm-2") in
      let h3 = Engine.submit e (opt ~frac:0.7 "adm-3") in
      let h4 = Engine.submit e (opt ~frac:0.9 "adm-4") in
      let r4 = Engine.await h4 in
      (match r4.P.body with
      | P.Rejected_overloaded { queue_cap; _ } ->
        Alcotest.(check int) "reported capacity" 2 queue_cap
      | _ ->
        Alcotest.failf "4th request should be shed, got class %s"
          (P.class_name (P.class_of_reply r4)));
      Alcotest.(check int) "overloaded exit code" 7
        (P.exit_code ~strict:false (P.class_of_reply r4));
      List.iter
        (fun h ->
          let r = Engine.await h in
          match r.P.body with
          | P.Scheduled _ -> ()
          | _ -> Alcotest.failf "accepted request %s should complete" r.P.id)
        [ h1; h2; h3 ];
      (* Overloaded rejections are not memoized: the retry is served for
         real once there is room. *)
      let retry = Engine.await (Engine.submit e (opt ~frac:0.9 "adm-4")) in
      match retry.P.body with
      | P.Scheduled _ -> ()
      | _ -> Alcotest.fail "retry after shed should be served")

let test_budget_exhausted () =
  with_engine ~workers:1 (fun e ->
      Engine.warm e [ (wl, None) ];
      (* The first job occupies the only worker; the second's budget is
         far below any solve time, so it drains while queued. *)
      let h1 = Engine.submit e (opt "bud-1") in
      let h2 = Engine.submit e (opt ~budget_s:1e-4 "bud-2") in
      ignore (Engine.await h1);
      let r2 = Engine.await h2 in
      match r2.P.body with
      | P.Rejected_budget { budget_s; waited_s } ->
        Alcotest.(check bool) "waited out its budget" true
          (waited_s > budget_s);
        Alcotest.(check int) "budget-exhausted exit code" 8
          (P.exit_code ~strict:true (P.class_of_reply r2))
      | _ ->
        Alcotest.failf "expected a budget rejection, got class %s"
          (P.class_name (P.class_of_reply r2)))

(* --- budget-driven ladder entry ---------------------------------------- *)

let test_for_budget_mapping () =
  let module R = Pipeline.Resilience in
  let d = R.default in
  let at remaining = R.for_budget ~budget:1.0 ~remaining d in
  Alcotest.(check bool) "ample budget unchanged" true (at 0.9 = d);
  let half = at 0.3 in
  Alcotest.(check bool) "mid budget drops retries" true
    (half.R.entry = R.From_milp && half.R.max_retries = 0);
  Alcotest.(check bool) "low budget enters at rounded LP" true
    ((at 0.1).R.entry = R.From_rounded_lp);
  Alcotest.(check bool) "critical budget goes straight to single mode" true
    ((at 0.01).R.entry = R.From_single_mode);
  Alcotest.check_raises "budget must be positive"
    (Invalid_argument "Pipeline.Resilience.for_budget: budget must be > 0")
    (fun () -> ignore (R.for_budget ~budget:0.0 ~remaining:0.0 d))

(* Entering below the MILP rung must still produce a verified schedule
   and record the skipped rungs as descents. *)
let test_ladder_entry_points () =
  let w = Workload.find wl in
  let input = Workload.default_input w in
  let cfg, _, mem = Workload.load w ~input in
  let machine = Workload.eval_config () in
  let p = Dvs_profile.Profile.collect machine cfg ~memory:mem in
  let n = Dvs_power.Mode.size machine.Dvs_machine.Config.mode_table in
  let t_fast = Dvs_profile.Profile.pinned_time p ~mode:(n - 1) in
  let t_slow = Dvs_profile.Profile.pinned_time p ~mode:0 in
  let deadline = t_fast +. (0.5 *. (t_slow -. t_fast)) in
  let run entry =
    let config =
      Pipeline.Config.make
        ~solver:(Dvs_milp.Solver.Config.make ~jobs:1 ~max_nodes:2000 ())
        ~resilience:(Pipeline.Resilience.make ~entry ())
        ()
    in
    Pipeline.optimize_multi ~config
      ~regulator:machine.Dvs_machine.Config.regulator ~memory:mem
      [ { Dvs_core.Formulation.profile = p; weight = 1.0; deadline } ]
  in
  let r_lp = run Pipeline.Resilience.From_rounded_lp in
  (match r_lp.Pipeline.rung with
  | Some (Pipeline.Rounded_lp | Pipeline.Single_mode) -> ()
  | rung ->
    Alcotest.failf "rounded-LP entry landed on %s"
      (match rung with
      | Some r -> Format.asprintf "%a" Pipeline.pp_rung r
      | None -> "no rung"));
  Alcotest.(check bool) "milp skip recorded" true
    (List.exists
       (fun d -> d.Pipeline.rung_failed = Pipeline.Milp)
       r_lp.Pipeline.descents);
  let r_single = run Pipeline.Resilience.From_single_mode in
  (match r_single.Pipeline.rung with
  | Some Pipeline.Single_mode -> ()
  | _ -> Alcotest.fail "single-mode entry must land on the baseline rung");
  match r_single.Pipeline.verification with
  | Some v ->
    Alcotest.(check bool) "baseline verified" true
      v.Dvs_core.Verify.meets_deadline
  | None -> Alcotest.fail "baseline rung was not verified"

(* --- batching ----------------------------------------------------------- *)

let test_batching () =
  with_engine ~workers:1 ~batch_max:8 ~default_budget_s:120.0 (fun e ->
      (* The far-out leader pays the model build; the three
         near-duplicates queue behind it and are served as one sweep. *)
      let h0 = Engine.submit e (opt ~frac:0.95 "bat-0") in
      let h1 = Engine.submit e (opt ~frac:0.5 "bat-1") in
      let h2 = Engine.submit e (opt ~frac:0.5 "bat-2") in
      let h3 = Engine.submit e (opt ~frac:0.52 "bat-3") in
      let r0 = Engine.await h0
      and r1 = Engine.await h1
      and r2 = Engine.await h2
      and r3 = Engine.await h3 in
      Alcotest.(check int) "leader solved alone" 1 r0.P.batched;
      List.iter
        (fun (r : P.reply) ->
          Alcotest.(check int)
            (r.P.id ^ " served in the shared batch") 3 r.P.batched)
        [ r1; r2; r3 ];
      let d r = (scheduled r).P.deadline_ms in
      Alcotest.(check (float 1e-9)) "same frac, same deadline" (d r1) (d r2);
      Alcotest.(check bool) "distinct fracs demuxed to distinct deadlines"
        true
        (d r3 > d r1 && d r0 > d r3);
      List.iter
        (fun r ->
          match (scheduled r).P.meets_deadline with
          | Some true -> ()
          | _ -> Alcotest.failf "batched point %s should verify" r.P.id)
        [ r1; r2; r3 ])

(* --- chaos -------------------------------------------------------------- *)

let test_poison_containment () =
  with_engine ~workers:1 (fun e ->
      Engine.warm e [ (wl, None) ];
      let poison = P.chaos ~poison_rate:1.0 ~seed:3 () in
      let bad =
        Engine.await (Engine.submit e (opt ~chaos:poison "poison-1"))
      in
      (match bad.P.body with
      | P.Failed_reply _ ->
        Alcotest.(check int) "failed exit code" 9
          (P.exit_code ~strict:false (P.class_of_reply bad))
      | _ ->
        Alcotest.failf "poisoned request should fail, got %s"
          (P.class_name (P.class_of_reply bad)));
      (* The worker survived: the pool keeps serving. *)
      let ok = Engine.await (Engine.submit e (opt "after-poison")) in
      match ok.P.body with
      | P.Scheduled _ -> ()
      | _ -> Alcotest.fail "pool should survive a poisoned request")

(* Chaos triggers are a pure function of (seed, request id): an identical
   seeded request set classifies identically at workers=1 and workers=4,
   whatever the interleaving. *)
let test_chaos_determinism_across_workers () =
  let chaos = P.chaos ~crash_rate:0.6 ~poison_rate:0.25 ~seed:7 () in
  let ids = List.init 8 (fun k -> Printf.sprintf "chaos-%02d" k) in
  let classify workers =
    with_engine ~workers ~default_budget_s:60.0 (fun e ->
        Engine.warm e [ (wl, None) ];
        let handles =
          List.map (fun id -> (id, Engine.submit e (opt ~chaos id))) ids
        in
        List.map
          (fun (id, h) -> (id, P.class_name (P.class_of_reply (Engine.await h))))
          handles)
    |> List.sort compare
  in
  let seq = classify 1 in
  let par = classify 4 in
  List.iter2
    (fun (id, c1) (id', c4) ->
      Alcotest.(check string) ("id match " ^ id) id id';
      Alcotest.(check string) ("class of " ^ id ^ " across worker counts")
        c1 c4)
    seq par;
  (* The seed actually fires: both outcomes appear in the set. *)
  let classes = List.map snd seq in
  Alcotest.(check bool) "some requests were poisoned" true
    (List.mem (P.class_name P.Failed) classes);
  Alcotest.(check bool) "some requests survived chaos" true
    (List.exists (fun c -> c <> P.class_name P.Failed) classes)

(* --- socket daemon ------------------------------------------------------ *)

let socket_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "dvsd-test-%s-%d.sock" name (Unix.getpid ()))

let test_daemon_roundtrip () =
  let path = socket_path "rt" in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let d =
    Daemon.start
      ~engine_config:(Engine.Config.make ~workers:1 ())
      ~socket:path ()
  in
  let runner = Thread.create Daemon.run d in
  Fun.protect
    ~finally:(fun () ->
      Daemon.stop d;
      Thread.join runner)
    (fun () ->
      let c = Client.connect ~socket:path in
      let pong = Client.rpc c { P.id = "ping-1"; body = P.Ping } in
      (match pong.P.body with
      | P.Pong -> ()
      | _ -> Alcotest.fail "ping over the socket should pong");
      let r = Client.rpc c (opt "sock-1") in
      (match r.P.body with
      | P.Scheduled _ -> ()
      | _ ->
        Alcotest.failf "socket optimize failed with class %s"
          (P.class_name (P.class_of_reply r)));
      let stats = Client.rpc c { P.id = "st-1"; body = P.Stats } in
      (match stats.P.body with
      | P.Stats_reply m -> (
        match Dvs_obs.Schema.validate_metrics m with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "socket stats invalid: %s" msg)
      | _ -> Alcotest.fail "stats over the socket");
      let bye = Client.rpc c { P.id = "bye-1"; body = P.Shutdown } in
      (match bye.P.body with
      | P.Bye -> ()
      | _ -> Alcotest.fail "shutdown should reply bye");
      Client.close c);
  Alcotest.(check bool) "socket unlinked on shutdown" false
    (Sys.file_exists path)

let test_daemon_stale_socket () =
  let path = socket_path "stale" in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  (* Fake a crash: a bound socket file nobody is listening on. *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.close fd;
  Alcotest.(check bool) "stale file left behind" true (Sys.file_exists path);
  let d =
    Daemon.start
      ~engine_config:(Engine.Config.make ~workers:1 ())
      ~socket:path ()
  in
  let runner = Thread.create Daemon.run d in
  Fun.protect
    ~finally:(fun () ->
      Daemon.stop d;
      Thread.join runner)
    (fun () ->
      let c = Client.connect ~socket:path in
      let pong = Client.rpc c { P.id = "p"; body = P.Ping } in
      (match pong.P.body with
      | P.Pong -> ()
      | _ -> Alcotest.fail "reclaimed daemon should answer");
      (* A second daemon must refuse the live socket. *)
      (match Daemon.start ~socket:path () with
      | _ -> Alcotest.fail "second daemon should refuse a live socket"
      | exception Failure _ -> ());
      Client.close c);
  Alcotest.(check bool) "socket cleaned up" false (Sys.file_exists path)

(* A frame around arbitrary payload bytes: the length header is right,
   the payload need not be JSON. *)
let write_raw_frame fd payload =
  let len = String.length payload in
  let frame = Bytes.create (4 + len) in
  Bytes.set_int32_be frame 0 (Int32.of_int len);
  Bytes.blit_string payload 0 frame 4 len;
  let rec go ofs =
    if ofs < Bytes.length frame then
      go (ofs + Unix.write fd frame ofs (Bytes.length frame - ofs))
  in
  go 0

(* Damaged request frames: well delimited, the payload a valid request
   with bytes replaced or cut off.  [read_frame] and [request_of_json]
   answer with a typed result and never raise. *)
let qcheck_damaged_frames =
  let requests =
    lazy
      (Array.map
         (fun r -> Json.to_string (P.request_to_json r))
         [| opt ~input:"default" ~budget_s:1.5
              ~chaos:(P.chaos ~crash_rate:0.5 ~seed:9 ())
              "a";
            { P.id = "b";
              body =
                P.Sweep
                  { workload = wl; input = None; fracs = [ 0.2; 0.5 ];
                    budget_s = None; chaos = None } };
            { P.id = "c"; body = P.Simulate { workload = wl; input = None; mode = 1 } }
         |])
  in
  QCheck.Test.make ~name:"damaged request frames decode typed" ~count:300
    QCheck.(
      quad (int_bound 2) bool small_nat
        (list_of_size Gen.(1 -- 4) (pair small_nat char)))
    (fun (which, truncate, cut, edits) ->
      let text = (Lazy.force requests).(which) in
      let n = String.length text in
      let payload =
        if truncate then String.sub text 0 (cut mod (n + 1))
        else begin
          let b = Bytes.of_string text in
          List.iter (fun (i, c) -> Bytes.set b (i mod n) c) edits;
          Bytes.to_string b
        end
      in
      let r, w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () ->
          Unix.close r;
          Unix.close w)
        (fun () ->
          write_raw_frame w payload;
          match P.read_frame r with
          | Error _ -> true
          | Ok j -> (
            match P.request_of_json j with Ok _ | Error _ -> true)))

(* A well-delimited frame whose payload does not parse, here a string
   with a [\u] escape that is not four hex digits, gets a typed
   [bad frame] reply, and the connection goes on serving. *)
let test_daemon_bad_escape_frame () =
  let path = socket_path "esc" in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let d =
    Daemon.start
      ~engine_config:(Engine.Config.make ~workers:1 ())
      ~socket:path ()
  in
  let runner = Thread.create Daemon.run d in
  Fun.protect
    ~finally:(fun () ->
      Daemon.stop d;
      Thread.join runner)
    (fun () ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX path);
          write_raw_frame fd "\"\\uZZZZ\"";
          let reply () =
            match P.read_frame fd with
            | Ok j -> (
              match P.reply_of_json j with
              | Ok r -> r.P.body
              | Error e -> Alcotest.failf "undecodable reply: %s" e)
            | Error e -> Alcotest.failf "bad reply frame: %s" e
            | exception P.Closed ->
              Alcotest.fail "the daemon closed the connection"
          in
          (match reply () with
          | P.Failed_reply msg when String.starts_with ~prefix:"bad frame" msg
            ->
            ()
          | _ -> Alcotest.fail "expected a bad frame reply");
          P.write_frame fd
            (P.request_to_json { P.id = "after"; body = P.Ping });
          match reply () with
          | P.Pong -> ()
          | _ -> Alcotest.fail "a ping after the bad frame should pong"))

let test_loadgen_report () =
  let path = socket_path "lg" in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let d =
    Daemon.start
      ~engine_config:(Engine.Config.make ~workers:2 ~queue_depth:8 ())
      ~socket:path ()
  in
  let runner = Thread.create Daemon.run d in
  Fun.protect
    ~finally:(fun () ->
      Daemon.stop d;
      Thread.join runner)
    (fun () ->
      let leg =
        Loadgen.leg ~clients:2 ~workloads:[ (wl, None) ] ~seed:11
          ~name:"smoke" ~requests:6 ~rate_hz:50.0 ()
      in
      let s = Loadgen.run ~socket:path leg in
      Alcotest.(check int) "every request accounted for" 6 s.Loadgen.sent;
      Alcotest.(check int) "class counts sum to sent" 6
        (List.fold_left (fun a (_, k) -> a + k) 0 s.Loadgen.classes);
      Alcotest.(check bool) "p99 covers p50" true
        (s.Loadgen.p99_ms >= s.Loadgen.p50_ms);
      (match Dvs_obs.Schema.validate_service (Loadgen.to_json s) with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "dvs-service/v1 report invalid: %s" msg);
      (* A chaos burst must leave the daemon serving. *)
      let chaos_leg =
        Loadgen.leg ~clients:2 ~workloads:[ (wl, None) ] ~seed:12
          ~chaos:(P.chaos ~crash_rate:1.0 ~seed:5 ())
          ~name:"chaos" ~requests:4 ~rate_hz:50.0 ()
      in
      let cs = Loadgen.run ~socket:path chaos_leg in
      Alcotest.(check int) "chaos leg completed" 4 cs.Loadgen.sent;
      let c = Client.connect ~socket:path in
      let pong = Client.rpc c { P.id = "alive"; body = P.Ping } in
      (match pong.P.body with
      | P.Pong -> ()
      | _ -> Alcotest.fail "daemon should survive the chaos burst");
      Client.close c)

let suite =
  [ Alcotest.test_case "protocol round-trips" `Quick test_protocol_roundtrip;
    Alcotest.test_case "exit-code table" `Quick test_exit_codes;
    Alcotest.test_case "optimize + simulate from warm state" `Quick
      test_optimize_and_simulate;
    Alcotest.test_case "warm-up session from the profile" `Quick
      test_warm_session_from_profile;
    Alcotest.test_case "idempotent replies + control ops" `Quick
      test_idempotent_replies;
    Alcotest.test_case "bounded queue sheds with typed rejection" `Quick
      test_admission_control;
    Alcotest.test_case "queued-out budget is rejected typed" `Quick
      test_budget_exhausted;
    Alcotest.test_case "budget-to-ladder mapping" `Quick
      test_for_budget_mapping;
    Alcotest.test_case "ladder entry below MILP verifies" `Quick
      test_ladder_entry_points;
    Alcotest.test_case "near-duplicate batching demuxes" `Quick
      test_batching;
    Alcotest.test_case "poisoned request contained" `Quick
      test_poison_containment;
    Alcotest.test_case "chaos classification deterministic across workers"
      `Quick test_chaos_determinism_across_workers;
    Alcotest.test_case "daemon socket round-trip" `Quick
      test_daemon_roundtrip;
    Alcotest.test_case "stale socket reclaimed, live refused" `Quick
      test_daemon_stale_socket;
    Alcotest.test_case "bad escape frame answered, connection kept" `Quick
      test_daemon_bad_escape_frame;
    QCheck_alcotest.to_alcotest qcheck_damaged_frames;
    Alcotest.test_case "loadgen report + chaos burst" `Quick
      test_loadgen_report ]
