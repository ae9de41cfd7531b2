module Json = Dvs_obs.Json
module Profile = Dvs_profile.Profile
module Pipeline = Dvs_core.Pipeline
module Formulation = Dvs_core.Formulation
module Verify = Dvs_core.Verify
module Solver = Dvs_milp.Solver

(* ---- cacheability ----------------------------------------------------- *)

(* A result may be stored only when recomputing it under the same key
   would reproduce it: wall-clock stops and contained crashes depend on
   machine load and scheduling, so they stay live. *)
let deterministic_outcome = function
  | Solver.Optimal | Solver.Infeasible | Solver.Unbounded -> true
  | Solver.Feasible r | Solver.No_solution r -> r <> Solver.Time_limit
  | Solver.Degraded _ -> false

let storable_result (r : Pipeline.result) =
  deterministic_outcome r.Pipeline.milp.Solver.outcome
  && List.for_all
       (fun (d : Pipeline.descent) ->
         d.Pipeline.cause <> Pipeline.Worker_crash)
       r.Pipeline.descents

let solver_cacheable (c : Solver.Config.t) = c.Solver.Config.fault = None

(* ---- sim: profiles ---------------------------------------------------- *)

let profile ?store ?fuel ~source machine cfg ~memory =
  let collect () = Profile.collect ?fuel machine cfg ~memory in
  match store with
  | None -> collect ()
  | Some st -> (
    let key =
      Key.make ~kind:"sim"
        (("source", Key.S source)
         :: ("memory", Key.S (Codec.memory_fingerprint memory))
         :: ( "fuel",
              match fuel with
              | None -> Key.L []
              | Some f -> Key.L [ Key.I f ] )
         :: Codec.machine_components ~prefix:"m." machine)
    in
    (* The entry's checksum hashes [Json.to_string (Codec.profile_to_json
       p)], which is [Codec.profile_fingerprint p]: the read has just
       verified it on a hit, and [put] computes it on a miss, so the
       sweep and solve keys never render the profile again. *)
    let fingerprinted p checksum =
      Profile.remember_fingerprint p checksum;
      p
    in
    match
      Store.get st key ~decode:(fun ~checksum j ->
          Codec.profile_of_json ~cfg ~config:machine j
          |> Result.map (fun p -> fingerprinted p checksum))
    with
    | Some p -> p
    | None ->
      let p = collect () in
      fingerprinted p (Store.put st key (Codec.profile_to_json p)))

(* ---- shared solve/sweep plumbing -------------------------------------- *)

let category_components categories =
  List.concat
    (List.mapi
       (fun i (c : Formulation.category) ->
         let p n = Printf.sprintf "cat%d.%s" i n in
         [ (p "profile", Key.S (Codec.profile_fingerprint c.Formulation.profile));
           (p "weight", Key.F c.Formulation.weight);
           (p "deadline", Key.F c.Formulation.deadline) ])
       categories)

(* Payloads pair the result essence with the stable-counter deltas the
   computation produced, so a hit can replay both. *)
let payload_with_counters body counters =
  Json.Obj
    [ ("essence", body); ("counters", Capture.to_json counters) ]

let decode_with_counters decode_body j =
  match (Json.member "essence" j, Json.member "counters" j) with
  | Some body, Some counters ->
    Result.bind (decode_body body) (fun e ->
        Result.map (fun cs -> (e, cs)) (Capture.of_json counters))
  | _ -> Error "payload: missing essence or counters"

let capture_around obs f =
  let before = Capture.state obs in
  let r = f () in
  let after = Capture.state obs in
  (r, Capture.diff ~before ~after)

(* The caller's session thunk, forced only when the pipeline cannot
   take over the profile's own recording: after a [sim] hit, on a
   profile whose recording is gone, or when the recording does not fit
   the verification. *)
let caller_session ~config session vconfig profile ~memory =
  match session with
  | Some f
    when not
           (Verify.Session.profile_fits
              ~cold:config.Pipeline.Config.cold_verify vconfig profile
              ~memory) ->
    Some (f ())
  | Some _ | None -> None

(* ---- solve: optimize_multi -------------------------------------------- *)

let optimize_multi ?store ?config ?verify_config ?session ~regulator ~memory
    categories =
  let config =
    match config with Some c -> c | None -> Pipeline.Config.default
  in
  let profile0 = (List.hd categories).Formulation.profile in
  let vconfig =
    match verify_config with Some c -> c | None -> profile0.Profile.config
  in
  let run () =
    Pipeline.optimize_multi ~config ?verify_config
      ?session:(caller_session ~config session vconfig profile0 ~memory)
      ~regulator ~memory categories
  in
  match store with
  | None -> run ()
  | Some _ when not (solver_cacheable config.Pipeline.Config.solver) ->
    run ()
  | Some st -> (
    let key =
      Key.make ~kind:"solve"
        (List.concat
           [ [ ("ncats", Key.I (List.length categories));
               ("regulator", Codec.regulator_component regulator);
               ("memory", Key.S (Codec.memory_fingerprint memory)) ];
             category_components categories;
             Codec.machine_components ~prefix:"vm." vconfig;
             Codec.pipeline_components config;
             Codec.solver_components config.Pipeline.Config.solver ])
    in
    let obs = Pipeline.Config.obs config in
    match
      Store.get st key ~decode:(fun ~checksum:_ ->
          decode_with_counters Codec.essence_of_json)
    with
    | Some (essence, counters) ->
      (* Nothing verifies here, so nothing may keep the recording. *)
      ignore (Profile.take_recording profile0);
      let prep = Pipeline.prepare ~config ~regulator categories in
      Capture.replay obs counters;
      Codec.result_of_essence ~categories
        ~formulation:prep.Pipeline.prep_formulation
        ~independent_edges:prep.Pipeline.prep_independent_edges essence
    | None ->
      let r, counters = capture_around obs run in
      if storable_result r then
        ignore
          (Store.put st key
             (payload_with_counters
                (Codec.essence_to_json (Codec.essence_of_result r))
                counters));
      r)

(* ---- sweep: optimize_sweep -------------------------------------------- *)

let optimize_sweep ?store ?config ?verify_config ?profile:prof ?session
    machine cfg ~memory ~deadlines =
  let config =
    match config with Some c -> c | None -> Pipeline.Config.default
  in
  (* The profile pins the store key and decides whether the caller's
     session is needed, so resolve it first (through the sim cache when
     the caller has one wired; bench passes it in). *)
  let p =
    match prof with
    | Some p -> p
    | None -> Profile.collect machine cfg ~memory
  in
  let vconfig =
    match verify_config with Some c -> c | None -> p.Profile.config
  in
  let run () =
    Pipeline.optimize_sweep ~config ?verify_config ~profile:p
      ?session:(caller_session ~config session vconfig p ~memory)
      machine cfg ~memory ~deadlines
  in
  match store with
  | None -> run ()
  | Some _ when not (solver_cacheable config.Pipeline.Config.solver) ->
    run ()
  | Some st -> (
    let key =
      Key.make ~kind:"sweep"
        (List.concat
           [ [ ("profile", Key.S (Codec.profile_fingerprint p));
               ( "deadlines",
                 Key.L
                   (Array.to_list deadlines |> List.map (fun d -> Key.F d))
               );
               ("memory", Key.S (Codec.memory_fingerprint memory)) ];
             Codec.machine_components ~prefix:"m." machine;
             Codec.machine_components ~prefix:"vm." vconfig;
             Codec.pipeline_components config;
             Codec.solver_components config.Pipeline.Config.solver ])
    in
    let obs = Pipeline.Config.obs config in
    let decode ~checksum:_ j =
      Result.bind (decode_with_counters Codec.sweep_of_json j)
        (fun ((sw : Codec.sweep_essence), cs) ->
          if Array.length sw.Codec.se_points <> Array.length deadlines then
            Error "sweep: point count does not match deadlines"
          else Ok (sw, cs))
    in
    match Store.get st key ~decode with
    | Some (sw, counters) ->
      ignore (Profile.take_recording p);
      let regulator = machine.Dvs_machine.Config.regulator in
      let category d =
        { Formulation.profile = p; weight = 1.0; deadline = d }
      in
      let d_loosest = Array.fold_left Float.max Float.neg_infinity deadlines in
      let prep =
        Pipeline.prepare ~config ~regulator [ category d_loosest ]
      in
      Capture.replay obs counters;
      { Pipeline.results =
          Array.mapi
            (fun i e ->
              Codec.result_of_essence
                ~categories:[ category deadlines.(i) ]
                ~formulation:prep.Pipeline.prep_formulation
                ~independent_edges:prep.Pipeline.prep_independent_edges e)
            sw.Codec.se_points;
        sweep = sw.Codec.se_stats }
    | None ->
      let r, counters = capture_around obs run in
      let storable =
        Array.for_all storable_result r.Pipeline.results
      in
      if storable then
        ignore
          (Store.put st key
             (payload_with_counters
                (Codec.sweep_to_json
                   { Codec.se_points =
                       Array.map Codec.essence_of_result r.Pipeline.results;
                     se_stats = r.Pipeline.sweep })
                counters));
      r)
