(* Output checks, run outside the timed region.  Every returned schedule
   is re-run cycle-accurately (a cold [Verify.Session]: no tape, no
   summaries) and must
   - meet its deadline within [Verify.deadline_tolerance];
   - leave the same final memory as the functional interpreter
     ([Dvs_ir.Interp.run]): mode-sets must not change what the program
     computes;
   - cost no less than the exact continuous bound
     ([Relaxation.bound]) and no more than the best single mode.
   Identical (program, input, deadline, schedule) points are checked
   once per run. *)

module Pipeline = Dvs_core.Pipeline
module Verify = Dvs_core.Verify

(* Relative slack on the two energy inequalities: the bound and the
   baseline come from per-block profile averages, the re-run from the
   simulator itself (the same cross-block effects that
   [Verify.deadline_tolerance] absorbs on time). *)
let energy_tolerance = 0.001

type program = {
  name : string;
  input : string;
  source : string;
  memory : int array;  (** the input image *)
  reference : int array Lazy.t;  (** the interpreter's final memory *)
  cold : Verify.Session.t Lazy.t;  (** cycle-accurate re-runs *)
}

let program machine (w : Dvs_workloads.Workload.t) ~input =
  let cfg, layout = Dvs_lang.Lower.compile_string w.source in
  let memory = w.fill layout ~input in
  { name = w.name; input; source = w.source; memory;
    reference = lazy (Dvs_ir.Interp.run ~fuel:max_int cfg ~memory).Dvs_ir.Interp.memory;
    cold = lazy (Verify.Session.create ~cold:true machine cfg ~memory) }

type outcome = {
  ok : bool;
  saving_pct : float;  (** vs the best single mode; [nan] when failed *)
  why : string;  (** "" when [ok] *)
}

type t = {
  memo : (string, outcome) Hashtbl.t;
  mutable checked : int;
  mutable above_bound : float;  (** least energy / bound - 1 seen *)
  mutable below_base : float;  (** least 1 - energy / baseline seen *)
}

let create () =
  { memo = Hashtbl.create 64; checked = 0; above_bound = infinity;
    below_base = infinity }

let failure why = { ok = false; saving_pct = nan; why }

let run_check t prog (r : Pipeline.result) ~deadline schedule =
  let profile = (List.hd r.Pipeline.categories).Dvs_core.Formulation.profile in
  let regulator = profile.Dvs_profile.Profile.config.Dvs_machine.Config.regulator in
  let rep =
    Verify.Session.check (Lazy.force prog.cold) ~schedule ~deadline
      ~predicted_energy:(Option.value r.Pipeline.predicted_energy ~default:0.0)
  in
  let st = rep.Verify.stats in
  let e = st.Dvs_machine.Cpu.energy in
  let bound =
    let rx =
      Dvs_core.Relaxation.prepare r.Pipeline.formulation ~regulator
        r.Pipeline.categories
    in
    Dvs_core.Relaxation.bound rx ~deadlines_us:[| deadline *. 1e6 |]
    |> Option.map (fun b -> b /. 1e6)
  in
  let base = Dvs_core.Baselines.best_single_mode profile ~deadline in
  let fail fmt = Printf.ksprintf failure fmt in
  if st.Dvs_machine.Cpu.time > deadline *. (1.0 +. Verify.deadline_tolerance) then
    fail "misses its deadline: %.6g s > %.6g s" st.Dvs_machine.Cpu.time deadline
  else if st.Dvs_machine.Cpu.memory <> Lazy.force prog.reference then
    fail "final memory differs from the interpreter's"
  else
    match (bound, base) with
    | None, _ -> fail "continuous relaxation infeasible at a scheduled deadline"
    | _, None -> fail "no single mode meets a scheduled deadline"
    | Some b, _ when e < b *. (1.0 -. energy_tolerance) ->
      fail "energy %.6g J below the continuous bound %.6g J" e b
    | _, Some (_, eb) when e > eb *. (1.0 +. energy_tolerance) ->
      fail "energy %.6g J above the best single mode %.6g J" e eb
    | Some b, Some (_, eb) ->
      t.above_bound <- Float.min t.above_bound ((e /. b) -. 1.0);
      t.below_base <- Float.min t.below_base (1.0 -. (e /. eb));
      { ok = true; saving_pct = 100.0 *. (1.0 -. (e /. eb)); why = "" }

let check t prog (r : Pipeline.result) ~deadline =
  match r.Pipeline.schedule with
  | None -> failure "no schedule"
  | Some s -> (
    let key =
      Printf.sprintf "%s:%s:%h:%s" prog.name prog.input deadline
        (Dvs_core.Schedule.to_string s)
    in
    match Hashtbl.find_opt t.memo key with
    | Some o -> o
    | None ->
      let o =
        try run_check t prog r ~deadline s
        with e -> failure ("check raised " ^ Printexc.to_string e)
      in
      t.checked <- t.checked + 1;
      Hashtbl.replace t.memo key o;
      o)

(* Verified savings of every distinct passing point: each point of the
   run's grid counts once, however many iterations repeated it. *)
let savings t =
  Hashtbl.fold
    (fun _ o acc -> if o.ok then o.saving_pct :: acc else acc)
    t.memo []

let margins t =
  Printf.sprintf
    "closest energy margins: %+.6f%% above the continuous bound, %+.6f%% \
     below the best single mode"
    (100.0 *. t.above_bound) (100.0 *. t.below_base)
