module P = Protocol
module Metrics = Dvs_obs.Metrics
module Pipeline = Dvs_core.Pipeline
module Verify = Dvs_core.Verify
module Workload = Dvs_workloads.Workload

exception Poisoned of string
(* A chaos-injected service-level failure: raised inside a worker on
   purpose so the containment guard (not the solver's) is what saves the
   pool. *)

module Config = struct
  type t = {
    workers : int;
    queue_depth : int;
    default_budget_s : float;
    batch_max : int;
    max_nodes : int;
    capacitance : float;
    levels : int option;
    store_root : string option;
    obs : Dvs_obs.t;
  }

  let make ?(workers = 2) ?(queue_depth = 64) ?(default_budget_s = 2.0)
      ?(batch_max = 8) ?(max_nodes = 4000) ?(capacitance = 0.4e-6) ?levels
      ?store_root ?(obs = Dvs_obs.disabled) () =
    if workers < 1 then invalid_arg "Engine.Config: workers must be >= 1";
    if queue_depth < 1 then
      invalid_arg "Engine.Config: queue_depth must be >= 1";
    if batch_max < 1 then invalid_arg "Engine.Config: batch_max must be >= 1";
    if not (default_budget_s > 0.0) then
      invalid_arg "Engine.Config: default_budget_s must be > 0";
    { workers; queue_depth; default_budget_s; batch_max; max_nodes;
      capacitance; levels; store_root; obs }

  let default = make ()
end

(* ---- warm model store ------------------------------------------------ *)

type model = {
  machine : Dvs_machine.Config.t;
  prog : Dvs_ir.Cfg.t;
  mem : int array;
  profile : Dvs_profile.Profile.t;
  session : Verify.Session.t;
  t_fast : float;
  t_slow : float;
}

(* ---- plumbing -------------------------------------------------------- *)

type ivar = {
  mutable value : P.reply option;
  imu : Mutex.t;
  icond : Condition.t;
}

let ivar () =
  { value = None; imu = Mutex.create (); icond = Condition.create () }

let resolve iv reply =
  Mutex.lock iv.imu;
  (match iv.value with None -> iv.value <- Some reply | Some _ -> ());
  Condition.broadcast iv.icond;
  Mutex.unlock iv.imu

let resolved iv = match iv.value with None -> false | Some _ -> true

let ivar_get iv =
  Mutex.lock iv.imu;
  let rec wait () =
    match iv.value with
    | Some r -> r
    | None ->
      Condition.wait iv.icond iv.imu;
      wait ()
  in
  let r = wait () in
  Mutex.unlock iv.imu;
  r

type handle = Now of P.reply | Later of ivar

type job = {
  req : P.request;
  budget : float;
  submitted : float;  (* Unix.gettimeofday at admission *)
  iv : ivar;
}

type t = {
  cfg : Config.t;
  obs : Dvs_obs.t;
  store : Dvs_store.Store.t option;
  lp_cache : Dvs_milp.Lp_cache.t;
  mu : Mutex.t;  (* guards queue, inflight, replies, flags *)
  nonempty : Condition.t;
  queue : job Queue.t;
  mutable stopping : bool;  (* stop: drain and join the pool *)
  mutable draining : bool;  (* shutdown seen: refuse new work *)
  mutable domains : unit Domain.t list;
  models_mu : Mutex.t;
  models : (string * string, model) Hashtbl.t;
  inflight : (string, ivar) Hashtbl.t;
  replies : (string, P.reply) Hashtbl.t;
  reply_order : string Queue.t;  (* FIFO eviction for [replies] *)
  c_requests : Metrics.Counter.t;
  c_accepted : Metrics.Counter.t;
  c_shed : Metrics.Counter.t;
  c_completed : Metrics.Counter.t;
  c_rejected_budget : Metrics.Counter.t;
  c_failed : Metrics.Counter.t;
  c_cache_replies : Metrics.Counter.t;
  c_batches : Metrics.Counter.t;
  c_batch_requests : Metrics.Counter.t;
  g_queue : Metrics.Gauge.t;
  h_queue_s : Metrics.Histogram.t;
  h_latency_s : Metrics.Histogram.t;
  h_savings : Metrics.Histogram.t;
}

let obs t = t.obs

let metrics_snapshot ?meta t =
  Metrics.snapshot ?meta (Dvs_obs.metrics t.obs)

let class_counter t cls =
  Metrics.counter (Dvs_obs.metrics t.obs) ~stability:Metrics.Volatile
    ("service.class." ^ P.class_name cls)

(* ---- warm store ------------------------------------------------------ *)

(* Compile + profile + verification session once per (workload, input);
   raises [Not_found] on an unknown workload name. *)
let model_for t ~workload ~input =
  let w = Workload.find workload in
  let input =
    match input with Some i -> i | None -> Workload.default_input w
  in
  let key = (workload, input) in
  Mutex.lock t.models_mu;
  let m =
    match Hashtbl.find_opt t.models key with
    | Some m -> m
    | None -> (
      match
        let machine =
          Workload.machine ?levels:t.cfg.Config.levels
            ~capacitance:t.cfg.Config.capacitance ()
        in
        let prog, _, mem = Workload.load w ~input in
        (* Profiling (one recorded simulation, re-costed per mode) is
           the expensive part of warming a model.  With a store
           configured, a daemon restart rehydrates it from disk instead
           (DESIGN.md section 14). *)
        let profile =
          Dvs_store.Exec.profile ?store:t.store
            ~source:(workload ^ ":" ^ input) machine prog ~memory:mem
        in
        (* Profiling in this process left its recording on the profile,
           and the session takes it over; after a store hit it records.
           Counted per source, under [models_mu]. *)
        let source, session =
          Verify.Session.for_profile ~cold:false machine profile ~memory:mem
        in
        Metrics.Counter.incr ~slot:0
          (Metrics.counter (Dvs_obs.metrics t.obs)
             ~stability:Metrics.Volatile
             ("service.model_session." ^ Verify.Session.source_name source));
        let session = Lazy.force session in
        let n = Dvs_power.Mode.size machine.Dvs_machine.Config.mode_table in
        let t_fast = Dvs_profile.Profile.pinned_time profile ~mode:(n - 1) in
        let t_slow = Dvs_profile.Profile.pinned_time profile ~mode:0 in
        { machine; prog; mem; profile; session; t_fast; t_slow }
      with
      | m ->
        Hashtbl.replace t.models key m;
        m
      | exception e ->
        Mutex.unlock t.models_mu;
        raise e)
  in
  Mutex.unlock t.models_mu;
  m

let warm t pairs =
  List.iter
    (fun (workload, input) -> ignore (model_for t ~workload ~input))
    pairs

(* ---- chaos ----------------------------------------------------------- *)

(* The fault draw is a pure function of (chaos spec, request id): same
   request, same faults, whatever worker picks it up and in whatever
   order — this is what makes the seeded chaos legs replayable at any
   worker count. *)
let eval_chaos (c : P.chaos option) ~id =
  match c with
  | None -> (false, false, false)
  | Some c ->
    let rng =
      Dvs_workloads.Rng.create (c.P.chaos_seed lxor Hashtbl.hash id)
    in
    let draw rate =
      rate > 0.0
      && (rate >= 1.0
         || Dvs_workloads.Rng.int rng 1_000_000
            < int_of_float (rate *. 1_000_000.0))
    in
    let crash = draw c.P.crash_rate in
    let exhaust = draw c.P.exhaust_rate in
    let poison = draw c.P.poison_rate in
    (crash, exhaust, poison)

let fault_for ~crash ~exhaust =
  if crash || exhaust then
    Some
      (Dvs_milp.Fault.make
         ?crash_at_nodes:(if crash then Some [ 1 ] else None)
         ?exhaust_pivots_every:(if exhaust then Some 1 else None)
         ())
  else None

(* ---- reply bookkeeping ----------------------------------------------- *)

(* Replies memoized by id. *)
let reply_cache = 1024

let cache_reply t (reply : P.reply) =
  if not (Hashtbl.mem t.replies reply.P.id) then begin
    Hashtbl.replace t.replies reply.P.id reply;
    Queue.push reply.P.id t.reply_order;
    while Hashtbl.length t.replies > reply_cache do
      Hashtbl.remove t.replies (Queue.pop t.reply_order)
    done
  end

(* Final accounting for an accepted job: memoize the reply for retries,
   release the in-flight slot, bump the class/latency metrics, wake the
   waiter.  [Overloaded] never reaches here (shed at admission). *)
let finish t ~slot job (reply : P.reply) =
  Mutex.lock t.mu;
  Hashtbl.remove t.inflight job.req.P.id;
  cache_reply t reply;
  Mutex.unlock t.mu;
  Metrics.Counter.incr (class_counter t (P.class_of_reply reply)) ~slot;
  (match reply.P.body with
  | P.Rejected_budget _ -> Metrics.Counter.incr t.c_rejected_budget ~slot
  | P.Failed_reply _ -> Metrics.Counter.incr t.c_failed ~slot
  | _ -> Metrics.Counter.incr t.c_completed ~slot);
  Metrics.Histogram.observe t.h_queue_s (reply.P.queue_ms /. 1e3);
  Metrics.Histogram.observe t.h_latency_s
    ((reply.P.queue_ms +. reply.P.service_ms) /. 1e3);
  resolve job.iv reply

let reply_of job ~queue_ms ~service_ms ~batched body =
  { P.id = job.req.P.id; queue_ms; service_ms; batched; body }

(* ---- solving --------------------------------------------------------- *)

let solver_config t ~time_limit ~fault =
  let c =
    Dvs_milp.Solver.Config.make ~jobs:1 ~max_nodes:t.cfg.Config.max_nodes ~time_limit ~cache:t.lp_cache
      ~obs:t.obs ()
  in
  match fault with
  | Some f -> Dvs_milp.Solver.Config.with_fault f c
  | None -> c

(* Map the remaining wall-clock budget onto the degradation ladder and
   remember whether that lowered the policy: a Time_degraded result whose
   descent was forced by the caller's budget (rather than a solver limit)
   is reported as Budget_degraded. *)
let policy_for ~budget ~remaining =
  let def = Pipeline.Resilience.default in
  let pol = Pipeline.Resilience.for_budget ~budget ~remaining def in
  let forced =
    pol.Pipeline.Resilience.entry <> Pipeline.Resilience.From_milp
    || pol.Pipeline.Resilience.max_retries
       <> def.Pipeline.Resilience.max_retries
  in
  (pol, forced)

let deadline_of model ~frac =
  model.t_fast +. (frac *. (model.t_slow -. model.t_fast))

let summarize t ~budget_forced model ~deadline (r : Pipeline.result) =
  let cls0 = P.class_of_pipeline (Pipeline.classify r) in
  let cls =
    match cls0 with
    | P.Time_degraded when budget_forced -> P.Budget_degraded
    | c -> c
  in
  let rung =
    Option.map (Format.asprintf "%a" Pipeline.pp_rung) r.Pipeline.rung
  in
  let predicted_uj =
    Option.map (fun e -> e *. 1e6) r.Pipeline.predicted_energy
  in
  let v = r.Pipeline.verification in
  let measured_j =
    Option.map
      (fun (v : Verify.report) -> v.Verify.stats.Dvs_machine.Cpu.energy)
      v
  in
  let measured_uj = Option.map (fun e -> e *. 1e6) measured_j in
  let measured_ms =
    Option.map
      (fun (v : Verify.report) ->
        v.Verify.stats.Dvs_machine.Cpu.time *. 1e3)
      v
  in
  let meets_deadline =
    Option.map (fun (v : Verify.report) -> v.Verify.meets_deadline) v
  in
  let savings_pct =
    match Dvs_core.Baselines.best_single_mode model.profile ~deadline with
    | Some (_, base) when base > 0.0 -> (
      match
        (match measured_j with
        | Some e -> Some e
        | None -> r.Pipeline.predicted_energy)
      with
      | Some e ->
        let s = 100.0 *. (1.0 -. (e /. base)) in
        Metrics.Histogram.observe t.h_savings s;
        Some s
      | None -> None)
    | _ -> None
  in
  { P.cls; rung; deadline_ms = deadline *. 1e3; predicted_uj; measured_uj;
    measured_ms; meets_deadline; savings_pct }

let optimize_point t model ~frac ~budget ~remaining ~fault =
  let deadline = deadline_of model ~frac in
  let pol, budget_forced = policy_for ~budget ~remaining in
  let time_limit = Float.max 0.05 (0.6 *. remaining) in
  let solver = solver_config t ~time_limit ~fault in
  let config = Pipeline.Config.make ~solver ~resilience:pol () in
  let r =
    Pipeline.optimize_multi ~config ~verify_config:model.machine
      ~session:model.session
      ~regulator:model.machine.Dvs_machine.Config.regulator
      ~memory:model.mem
      [ { Dvs_core.Formulation.profile = model.profile; weight = 1.0;
          deadline } ]
  in
  summarize t ~budget_forced model ~deadline r

(* One sweep solve over distinct deadlines through the parametric engine
   (tightest-first incumbent lifting, warm verification session). *)
let sweep_points t model ~fracs ~remaining =
  let deadlines =
    List.map (fun f -> deadline_of model ~frac:f) fracs
    |> List.sort_uniq compare |> Array.of_list
  in
  let time_limit = Float.max 0.05 (0.6 *. remaining) in
  let solver = solver_config t ~time_limit ~fault:None in
  let config = Pipeline.Config.make ~solver () in
  let sw =
    Pipeline.optimize_sweep ~config ~verify_config:model.machine
      ~profile:model.profile ~session:model.session model.machine model.prog
      ~memory:model.mem ~deadlines
  in
  let point frac =
    let d = deadline_of model ~frac in
    let i = ref 0 in
    Array.iteri (fun k dk -> if dk = d then i := k) deadlines;
    summarize t ~budget_forced:false model ~deadline:d
      sw.Pipeline.results.(!i)
  in
  point

(* ---- request processing ---------------------------------------------- *)

let fail_reply job ~queue_ms msg =
  reply_of job ~queue_ms ~service_ms:0.0 ~batched:1 (P.Failed_reply msg)

let run_single t ~slot job ~waited ~remaining =
  let t0 = Unix.gettimeofday () in
  let queue_ms = waited *. 1e3 in
  let done_ body =
    let service_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
    finish t ~slot job (reply_of job ~queue_ms ~service_ms ~batched:1 body)
  in
  let with_model ~workload ~input k =
    match model_for t ~workload ~input with
    | m -> k m
    | exception Not_found ->
      done_ (P.Failed_reply (Printf.sprintf "unknown workload %S" workload))
  in
  match job.req.P.body with
  | P.Optimize { workload; input; deadline_frac; chaos; _ } ->
    with_model ~workload ~input (fun model ->
        let crash, exhaust, poison = eval_chaos chaos ~id:job.req.P.id in
        if poison then raise (Poisoned job.req.P.id);
        let fault = fault_for ~crash ~exhaust in
        let s =
          optimize_point t model ~frac:deadline_frac ~budget:job.budget
            ~remaining ~fault
        in
        done_ (P.Scheduled s))
  | P.Sweep { workload; input; fracs; chaos; _ } ->
    with_model ~workload ~input (fun model ->
        let crash, exhaust, poison = eval_chaos chaos ~id:job.req.P.id in
        if poison then raise (Poisoned job.req.P.id);
        let pol, _ = policy_for ~budget:job.budget ~remaining in
        let points =
          if
            crash || exhaust
            || pol.Pipeline.Resilience.entry <> Pipeline.Resilience.From_milp
          then
            (* Chaos or a drained budget: solve each point through the
               ladder on its own, with a fresh injector per point so the
               fault ordinals replay identically. *)
            List.map
              (fun frac ->
                optimize_point t model ~frac ~budget:job.budget ~remaining
                  ~fault:(fault_for ~crash ~exhaust))
              fracs
          else
            let point = sweep_points t model ~fracs ~remaining in
            List.map point fracs
        in
        done_ (P.Sweep_points points))
  | P.Simulate { workload; input; mode } ->
    with_model ~workload ~input (fun model ->
        let runs = model.profile.Dvs_profile.Profile.runs in
        if mode < 0 || mode >= Array.length runs then
          done_
            (P.Failed_reply
               (Printf.sprintf "mode %d out of range (table has %d modes)"
                  mode (Array.length runs)))
        else
          let st = runs.(mode) in
          done_
            (P.Scheduled
               { P.cls = P.Full; rung = None; deadline_ms = 0.0;
                 predicted_uj = None;
                 measured_uj = Some (st.Dvs_machine.Cpu.energy *. 1e6);
                 measured_ms = Some (st.Dvs_machine.Cpu.time *. 1e3);
                 meets_deadline = None; savings_pct = None }))
  | P.Ping | P.Stats | P.Shutdown ->
    (* Control requests are answered at submit and never enqueued. *)
    assert false

(* A batch: near-duplicate chaos-free optimize jobs for one model, solved
   as a single parametric sweep over their distinct deadlines and demuxed
   per caller. *)
let run_batch t ~slot live =
  let t0 = Unix.gettimeofday () in
  let n = List.length live in
  Metrics.Counter.incr t.c_batches ~slot;
  Metrics.Counter.add t.c_batch_requests ~slot n;
  let job0, _, _ = List.hd live in
  let workload, input, frac_of =
    match job0.req.P.body with
    | P.Optimize { workload; input; _ } ->
      ( workload, input,
        fun (j : job) ->
          match j.req.P.body with
          | P.Optimize { deadline_frac; _ } -> deadline_frac
          | _ -> assert false )
    | _ -> assert false
  in
  match model_for t ~workload ~input with
  | exception Not_found ->
    let msg = Printf.sprintf "unknown workload %S" workload in
    List.iter
      (fun (j, waited, _) ->
        finish t ~slot j (fail_reply j ~queue_ms:(waited *. 1e3) msg))
      live
  | model ->
    let min_remaining =
      List.fold_left (fun acc (_, _, r) -> Float.min acc r) infinity live
    in
    let fracs = List.map (fun (j, _, _) -> frac_of j) live in
    let point = sweep_points t model ~fracs ~remaining:min_remaining in
    let service_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
    List.iter
      (fun (j, waited, _) ->
        finish t ~slot j
          (reply_of j ~queue_ms:(waited *. 1e3) ~service_ms ~batched:n
             (P.Scheduled (point (frac_of j)))))
      live

let process t ~slot batch =
  let now = Unix.gettimeofday () in
  let live =
    List.filter_map
      (fun job ->
        let waited = now -. job.submitted in
        let remaining = job.budget -. waited in
        if remaining <= 0.0 then begin
          finish t ~slot job
            (reply_of job ~queue_ms:(waited *. 1e3) ~service_ms:0.0
               ~batched:1
               (P.Rejected_budget { budget_s = job.budget; waited_s = waited }));
          None
        end
        else Some (job, waited, remaining))
      batch
  in
  let guarded f job =
    try f () with
    | Poisoned id ->
      finish t ~slot job
        (fail_reply job
           ~queue_ms:((now -. job.submitted) *. 1e3)
           (Printf.sprintf "poisoned request %S contained by the worker" id))
    | exn ->
      if not (resolved job.iv) then
        finish t ~slot job
          (fail_reply job
             ~queue_ms:((now -. job.submitted) *. 1e3)
             ("contained worker failure: " ^ Printexc.to_string exn))
  in
  match live with
  | [] -> ()
  | [ (job, waited, remaining) ] ->
    guarded (fun () -> run_single t ~slot job ~waited ~remaining) job
  | many ->
    (* Batches are only formed from chaos-free optimize jobs; solve them
       together when every member's budget still allows a full MILP
       entry, otherwise peel them off individually so each one descends
       its own ladder. *)
    let all_full =
      List.for_all
        (fun (j, _, r) -> not (snd (policy_for ~budget:j.budget ~remaining:r)))
        many
    in
    if all_full then (
      let job0, _, _ = List.hd many in
      try run_batch t ~slot many
      with exn ->
        let msg = "contained worker failure: " ^ Printexc.to_string exn in
        ignore job0;
        List.iter
          (fun (j, waited, _) ->
            if not (resolved j.iv) then
              finish t ~slot j (fail_reply j ~queue_ms:(waited *. 1e3) msg))
          many)
    else
      List.iter
        (fun (j, waited, remaining) ->
          guarded (fun () -> run_single t ~slot j ~waited ~remaining) j)
        many

(* ---- batching -------------------------------------------------------- *)

let batch_key (job : job) =
  match job.req.P.body with
  | P.Optimize { workload; input; deadline_frac; chaos; _ } ->
    let chaos_free =
      match chaos with
      | None -> true
      | Some c ->
        c.P.crash_rate = 0.0 && c.P.exhaust_rate = 0.0
        && c.P.poison_rate = 0.0
    in
    if chaos_free then Some (workload, input, deadline_frac) else None
  | _ -> None

(* Relative deadline window for near-duplicate batching. *)
let batch_window = 0.05

(* Called under [t.mu]: greedily pull near-duplicates of [leader] out of
   the queue (same model, deadline fraction within [batch_window]),
   preserving the order of everything left behind. *)
let collect_batch t leader =
  match batch_key leader with
  | None -> [ leader ]
  | Some _ when t.cfg.Config.batch_max <= 1 -> [ leader ]
  | Some (w, i, f0) ->
    let rest = List.rev (Queue.fold (fun acc j -> j :: acc) [] t.queue) in
    Queue.clear t.queue;
    let taken = ref [ leader ] in
    let n = ref 1 in
    List.iter
      (fun j ->
        let matches =
          !n < t.cfg.Config.batch_max
          &&
          match batch_key j with
          | Some (w', i', f') ->
            w' = w && i' = i
            && Float.abs (f' -. f0) <= batch_window
          | None -> false
        in
        if matches then begin
          taken := j :: !taken;
          incr n
        end
        else Queue.push j t.queue)
      rest;
    List.rev !taken

(* ---- worker pool ----------------------------------------------------- *)

let worker_loop t ~slot =
  let rec loop () =
    Mutex.lock t.mu;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.nonempty t.mu
    done;
    if Queue.is_empty t.queue then Mutex.unlock t.mu (* stopping: drain done *)
    else begin
      let leader = Queue.pop t.queue in
      let batch = collect_batch t leader in
      Metrics.Gauge.set t.g_queue (float_of_int (Queue.length t.queue));
      Mutex.unlock t.mu;
      (* Last-resort containment: [process] guards per job, but nothing
         that escapes may kill the domain. *)
      (try process t ~slot batch
       with exn ->
         let msg = "contained worker failure: " ^ Printexc.to_string exn in
         List.iter
           (fun j ->
             if not (resolved j.iv) then
               finish t ~slot j (fail_reply j ~queue_ms:0.0 msg))
           batch);
      loop ()
    end
  in
  loop ()

(* ---- lifecycle ------------------------------------------------------- *)

let create (cfg : Config.t) =
  let obs =
    if Dvs_obs.enabled cfg.Config.obs then cfg.Config.obs
    else Dvs_obs.metrics_only ()
  in
  let m = Dvs_obs.metrics obs in
  let counter name = Metrics.counter m ~stability:Metrics.Volatile name in
  let store =
    Option.map
      (fun root -> Dvs_store.Store.open_ ~obs ~root ())
      cfg.Config.store_root
  in
  let t =
    { cfg; obs; store;
      lp_cache = Dvs_milp.Lp_cache.create ~max_entries:16384 ();
      mu = Mutex.create (); nonempty = Condition.create ();
      queue = Queue.create (); stopping = false; draining = false;
      domains = []; models_mu = Mutex.create (); models = Hashtbl.create 8;
      inflight = Hashtbl.create 64; replies = Hashtbl.create 256;
      reply_order = Queue.create ();
      c_requests = counter "service.requests";
      c_accepted = counter "service.accepted";
      c_shed = counter "service.shed";
      c_completed = counter "service.completed";
      c_rejected_budget = counter "service.rejected_budget";
      c_failed = counter "service.failed";
      c_cache_replies = counter "service.cache_replies";
      c_batches = counter "service.batches";
      c_batch_requests = counter "service.batch_requests";
      g_queue =
        Metrics.gauge m ~stability:Metrics.Volatile "service.queue_depth";
      h_queue_s =
        Metrics.histogram m ~stability:Metrics.Volatile
          "service.queue_seconds";
      h_latency_s =
        Metrics.histogram m ~stability:Metrics.Volatile
          "service.latency_seconds";
      h_savings =
        Metrics.histogram m ~stability:Metrics.Volatile "service.savings_pct";
    }
  in
  t.domains <-
    List.init cfg.Config.workers (fun w ->
        Domain.spawn (fun () -> worker_loop t ~slot:(w + 1)));
  t

let queue_len t =
  Mutex.lock t.mu;
  let n = Queue.length t.queue in
  Mutex.unlock t.mu;
  n

let draining t =
  Mutex.lock t.mu;
  let d = t.draining in
  Mutex.unlock t.mu;
  d

let control_reply (req : P.request) body =
  { P.id = req.P.id; queue_ms = 0.0; service_ms = 0.0; batched = 1; body }

let budget_of t (body : P.request_body) =
  let b =
    match body with
    | P.Optimize { budget_s; _ } | P.Sweep { budget_s; _ } -> budget_s
    | _ -> None
  in
  match b with
  | Some b when b > 0.0 -> b
  | _ -> t.cfg.Config.default_budget_s

let submit t (req : P.request) =
  let slot = 0 in
  match req.P.body with
  | P.Ping -> Now (control_reply req P.Pong)
  | P.Stats -> Now (control_reply req (P.Stats_reply (metrics_snapshot t)))
  | P.Shutdown ->
    Mutex.lock t.mu;
    t.draining <- true;
    Mutex.unlock t.mu;
    Now (control_reply req P.Bye)
  | P.Optimize _ | P.Sweep _ | P.Simulate _ ->
    Metrics.Counter.incr t.c_requests ~slot;
    Mutex.lock t.mu;
    (match Hashtbl.find_opt t.replies req.P.id with
    | Some r ->
      Mutex.unlock t.mu;
      Metrics.Counter.incr t.c_cache_replies ~slot;
      Now r
    | None -> (
      match Hashtbl.find_opt t.inflight req.P.id with
      | Some iv ->
        Mutex.unlock t.mu;
        Later iv
      | None ->
        if t.draining || t.stopping then begin
          Mutex.unlock t.mu;
          Metrics.Counter.incr t.c_failed ~slot;
          Now
            (control_reply req (P.Failed_reply "daemon is shutting down"))
        end
        else if Queue.length t.queue >= t.cfg.Config.queue_depth then begin
          let queue_len = Queue.length t.queue in
          Mutex.unlock t.mu;
          Metrics.Counter.incr t.c_shed ~slot;
          Metrics.Counter.incr (class_counter t P.Overloaded) ~slot;
          Now
            (control_reply req
               (P.Rejected_overloaded
                  { queue_len; queue_cap = t.cfg.Config.queue_depth }))
        end
        else begin
          let job =
            { req; budget = budget_of t req.P.body;
              submitted = Unix.gettimeofday (); iv = ivar () }
          in
          Queue.push job t.queue;
          Hashtbl.replace t.inflight req.P.id job.iv;
          Metrics.Gauge.set t.g_queue (float_of_int (Queue.length t.queue));
          Condition.signal t.nonempty;
          Mutex.unlock t.mu;
          Metrics.Counter.incr t.c_accepted ~slot;
          Later job.iv
        end))

let await = function Now r -> r | Later iv -> ivar_get iv

let stop t =
  Mutex.lock t.mu;
  t.stopping <- true;
  t.draining <- true;
  Condition.broadcast t.nonempty;
  let ds = t.domains in
  t.domains <- [];
  Mutex.unlock t.mu;
  List.iter Domain.join ds
