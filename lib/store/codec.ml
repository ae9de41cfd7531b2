module Json = Dvs_obs.Json
module Cpu = Dvs_machine.Cpu
module Cache = Dvs_machine.Cache
module Profile = Dvs_profile.Profile
module Schedule = Dvs_core.Schedule
module Verify = Dvs_core.Verify
module Pipeline = Dvs_core.Pipeline
module Formulation = Dvs_core.Formulation
module Solver = Dvs_milp.Solver
module Sweep = Dvs_milp.Sweep
module Simplex = Dvs_lp.Simplex
module Mode = Dvs_power.Mode
module Switch_cost = Dvs_power.Switch_cost

(* ---- primitives ------------------------------------------------------- *)

(* Hex-float strings round-trip every bit pattern, including infinities
   (the LP bound of an infeasible instance) — Json.Float would print
   those as null. *)
let jf f = Json.String (Printf.sprintf "%h" f)

let jopt f = function None -> Json.Null | Some v -> f v

let jints a = Json.List (Array.to_list a |> List.map (fun n -> Json.Int n))

let jfloats a = Json.List (Array.to_list a |> List.map jf)

exception Decode of string

let fail fmt = Printf.ksprintf (fun s -> raise (Decode s)) fmt

let wrap f j = match f j with v -> Ok v | exception Decode e -> Error e

let mem what k j =
  match Json.member k j with
  | Some v -> v
  | None -> fail "%s: missing %S" what k

let dint what = function
  | Json.Int n -> n
  | _ -> fail "%s: expected an integer" what

let dbool what = function
  | Json.Bool b -> b
  | _ -> fail "%s: expected a bool" what

let dstr what = function
  | Json.String s -> s
  | _ -> fail "%s: expected a string" what

let dflo what = function
  | Json.String s -> (
    try float_of_string s with Failure _ -> fail "%s: bad float" what)
  | Json.Int n -> float_of_int n
  | Json.Float f -> f
  | _ -> fail "%s: expected a float" what

let dlist what = function
  | Json.List l -> l
  | _ -> fail "%s: expected a list" what

let dopt f = function Json.Null -> None | j -> Some (f j)

let dints what j = dlist what j |> List.map (dint what) |> Array.of_list

let dfloats what j = dlist what j |> List.map (dflo what) |> Array.of_list

(* ---- memory images ---------------------------------------------------- *)

(* Render [w] in decimal at the end of [buf], a buffer of [word_buf_len]
   bytes, just before its last byte, and return the index of its first
   byte.  Digits come from the non-positive magnitude, so [min_int] needs
   no special case; the longest rendering, "-4611686018427387904", is 20
   bytes. *)
let word_buf_len = 21

let render_word buf w =
  let m = ref (if w > 0 then -w else w) in
  let pos = ref (Bytes.length buf - 1) in
  (* At least one digit, so 0 renders as "0". *)
  decr pos;
  Bytes.unsafe_set buf !pos (Char.unsafe_chr (48 - (!m mod 10)));
  m := !m / 10;
  while !m <> 0 do
    decr pos;
    Bytes.unsafe_set buf !pos (Char.unsafe_chr (48 - (!m mod 10)));
    m := !m / 10
  done;
  if w < 0 then begin
    decr pos;
    Bytes.unsafe_set buf !pos '-'
  end;
  !pos

(* A run's final memory image is most of an artifact's bytes (40,964
   words for mpeg), and it repeats: every mode run of a profile and every
   verified point of a sweep ends with the same memory.  Encoders intern
   each distinct image once into a table that the top-level object writes
   as its "images" member; a run records its image's index. *)
type images = { mutable rev : int array list; mutable n : int }

let images () = { rev = []; n = 0 }

let intern imgs mem =
  let rec find i = function
    | [] -> None
    | m :: rest -> if m == mem || m = mem then Some i else find (i - 1) rest
  in
  match find (imgs.n - 1) imgs.rev with
  | Some i -> i
  | None ->
    imgs.rev <- mem :: imgs.rev;
    imgs.n <- imgs.n + 1;
    imgs.n - 1

(* One image is one string of comma-separated decimal words, each
   rendered straight into the output buffer. *)
let image_to_string mem =
  let n = Array.length mem in
  let out = Buffer.create ((4 * n) + 16) in
  let buf = Bytes.create word_buf_len in
  for i = 0 to n - 1 do
    if i > 0 then Buffer.add_char out ',';
    let pos = render_word buf (Array.unsafe_get mem i) in
    Buffer.add_subbytes out buf pos (word_buf_len - 1 - pos)
  done;
  Buffer.contents out

(* The inverse of [image_to_string], in one pass into an array of exactly
   the image's length.  An image is the empty string or words joined by
   single commas; a word is an optional '-' and decimal digits without a
   leading zero, in the int range.  Anything else, which the encoder
   never writes, is an [Error]: an empty word, a '+', a leading zero, "-0",
   a stray byte, a value out of range. *)
let min_int_div_10 = min_int / 10

let image_of_string s =
  let len = String.length s in
  let words = ref (if len = 0 then 0 else 1) in
  for i = 0 to len - 1 do
    if String.unsafe_get s i = ',' then incr words
  done;
  let mem = Array.make !words 0 in
  let pos = ref 0 and ok = ref true and k = ref 0 in
  while !ok && !pos < len do
    let neg = String.unsafe_get s !pos = '-' in
    if neg then incr pos;
    let start = !pos in
    (* Accumulated negatively, so that min_int fits. *)
    let acc = ref 0 in
    while !ok && !pos < len && String.unsafe_get s !pos <> ',' do
      let d = Char.code (String.unsafe_get s !pos) - 48 in
      if d < 0 || d > 9 || !acc < min_int_div_10 || !acc * 10 < min_int + d
      then ok := false
      else begin
        acc := (!acc * 10) - d;
        incr pos
      end
    done;
    let digits = !pos - start in
    if
      (not !ok) || digits = 0
      || (digits > 1 && String.unsafe_get s start = '0')
      || (neg && !acc = 0)
      || ((not neg) && !acc = min_int)
    then ok := false
    else begin
      (* Word [k] is followed by comma [k], so [k] < [words]. *)
      Array.unsafe_set mem !k (if neg then !acc else - !acc);
      incr k;
      (* Past the comma; one that ends the string leaves a word empty. *)
      if !pos < len then begin
        incr pos;
        if !pos = len then ok := false
      end
    end
  done;
  if !ok then Ok mem else Error "malformed memory image"

let images_to_json imgs =
  Json.List (List.rev_map (fun m -> Json.String (image_to_string m)) imgs.rev)

(* The decoded images of one entry.  The first run that refers to an
   image takes the decoded array itself and every later run a copy, so
   decoded runs never alias one another and no image is copied for
   nothing. *)
type table = { decoded : int array array; taken : bool array }

let images_of what j =
  let decoded =
    dlist what (mem what "images" j)
    |> List.map (fun ij ->
           match image_of_string (dstr what ij) with
           | Ok m -> m
           | Error e -> fail "%s: %s" what e)
    |> Array.of_list
  in
  { decoded; taken = Array.make (Array.length decoded) false }

let image_of what t j =
  let i = dint what j in
  if i < 0 || i >= Array.length t.decoded then
    fail "%s: image index %d out of range" what i;
  if t.taken.(i) then Array.copy t.decoded.(i)
  else begin
    t.taken.(i) <- true;
    t.decoded.(i)
  end

(* ---- simulator artifacts ---------------------------------------------- *)

let cache_stats_to_json (s : Cache.stats) =
  Json.Obj
    [ ("accesses", Json.Int s.Cache.accesses);
      ("hits", Json.Int s.Cache.hits);
      ("misses", Json.Int s.Cache.misses) ]

let cache_stats_of what j =
  { Cache.accesses = dint what (mem what "accesses" j);
    hits = dint what (mem what "hits" j);
    misses = dint what (mem what "misses" j) }

let run_stats_to_json imgs (r : Cpu.run_stats) =
  Json.Obj
    [ ("time", jf r.Cpu.time);
      ("energy", jf r.Cpu.energy);
      ("dyn_instrs", Json.Int r.Cpu.dyn_instrs);
      ("mode_transitions", Json.Int r.Cpu.mode_transitions);
      ("transition_time", jf r.Cpu.transition_time);
      ("transition_energy", jf r.Cpu.transition_energy);
      ("l1", cache_stats_to_json r.Cpu.l1);
      ("l2", cache_stats_to_json r.Cpu.l2);
      ("overlap_cycles", Json.Int r.Cpu.overlap_cycles);
      ("dependent_cycles", Json.Int r.Cpu.dependent_cycles);
      ("cache_hit_cycles", Json.Int r.Cpu.cache_hit_cycles);
      ("miss_busy_time", jf r.Cpu.miss_busy_time);
      ("stall_time", jf r.Cpu.stall_time);
      ("registers", jints r.Cpu.registers);
      ("memory", Json.Int (intern imgs r.Cpu.memory)) ]

let run_stats_of what images j =
  { Cpu.time = dflo what (mem what "time" j);
    energy = dflo what (mem what "energy" j);
    dyn_instrs = dint what (mem what "dyn_instrs" j);
    mode_transitions = dint what (mem what "mode_transitions" j);
    transition_time = dflo what (mem what "transition_time" j);
    transition_energy = dflo what (mem what "transition_energy" j);
    l1 = cache_stats_of what (mem what "l1" j);
    l2 = cache_stats_of what (mem what "l2" j);
    overlap_cycles = dint what (mem what "overlap_cycles" j);
    dependent_cycles = dint what (mem what "dependent_cycles" j);
    cache_hit_cycles = dint what (mem what "cache_hit_cycles" j);
    miss_busy_time = dflo what (mem what "miss_busy_time" j);
    stall_time = dflo what (mem what "stall_time" j);
    registers = dints what (mem what "registers" j);
    memory = image_of what images (mem what "memory" j) }

let path_to_json (p : Profile.path) =
  Json.Obj
    [ ("pred", jopt (fun l -> Json.Int l) p.Profile.pred);
      ("node", Json.Int p.Profile.node);
      ("succ", Json.Int p.Profile.succ) ]

let path_of what j =
  { Profile.pred = dopt (dint what) (mem what "pred" j);
    node = dint what (mem what "node" j);
    succ = dint what (mem what "succ" j) }

let profile_to_json (p : Profile.t) =
  let imgs = images () in
  let runs =
    Array.to_list p.Profile.runs |> List.map (run_stats_to_json imgs)
  in
  Json.Obj
    [ ("exec_count", jints p.Profile.exec_count);
      ("edge_count", jints p.Profile.edge_count);
      ("entry_count", Json.Int p.Profile.entry_count);
      ( "paths",
        Json.List
          (List.map
             (fun (path, n) ->
               Json.Obj
                 [ ("path", path_to_json path); ("count", Json.Int n) ])
             p.Profile.paths) );
      ( "total_time",
        Json.List (Array.to_list p.Profile.total_time |> List.map jfloats) );
      ( "total_energy",
        Json.List (Array.to_list p.Profile.total_energy |> List.map jfloats)
      );
      ("runs", Json.List runs);
      ("images", images_to_json imgs) ]

let profile_of_json ~cfg ~config j =
  let what = "profile" in
  wrap
    (fun j ->
      let images = images_of what j in
      { Profile.cfg;
        config;
        exec_count = dints what (mem what "exec_count" j);
        edge_count = dints what (mem what "edge_count" j);
        entry_count = dint what (mem what "entry_count" j);
        paths =
          dlist what (mem what "paths" j)
          |> List.map (fun pj ->
                 ( path_of what (mem what "path" pj),
                   dint what (mem what "count" pj) ));
        total_time =
          dlist what (mem what "total_time" j)
          |> List.map (dfloats what)
          |> Array.of_list;
        total_energy =
          dlist what (mem what "total_energy" j)
          |> List.map (dfloats what)
          |> Array.of_list;
        runs =
          dlist what (mem what "runs" j)
          |> List.map (run_stats_of what images)
          |> Array.of_list;
        recording = Profile.no_recording ();
        fingerprint = None })
    j

(* The profile's own JSON rendering is canonical (sorted construction,
   bit-exact floats), so its hash is a faithful content fingerprint.  A
   profile remembers it, so it is rendered for this at most once; [Exec]
   seeds the memo with the store's checksum of the same bytes. *)
let profile_fingerprint p =
  match Profile.fingerprint p with
  | Some fp -> fp
  | None ->
    let fp = Key.hash_hex (Json.to_string (profile_to_json p)) in
    Profile.remember_fingerprint p fp;
    fp

(* ---- schedules, verification ------------------------------------------ *)

let schedule_to_json (s : Schedule.t) =
  Json.Obj
    [ ("edge_mode", jints s.Schedule.edge_mode);
      ("entry_mode", Json.Int s.Schedule.entry_mode) ]

let schedule_of what j =
  { Schedule.edge_mode = dints what (mem what "edge_mode" j);
    entry_mode = dint what (mem what "entry_mode" j) }

let report_to_json imgs (v : Verify.report) =
  Json.Obj
    [ ("stats", run_stats_to_json imgs v.Verify.stats);
      ("deadline", jf v.Verify.deadline);
      ("meets_deadline", Json.Bool v.Verify.meets_deadline);
      ("predicted_energy", jf v.Verify.predicted_energy);
      ("energy_error", jf v.Verify.energy_error) ]

let report_of what images j =
  { Verify.stats = run_stats_of what images (mem what "stats" j);
    deadline = dflo what (mem what "deadline" j);
    meets_deadline = dbool what (mem what "meets_deadline" j);
    predicted_energy = dflo what (mem what "predicted_energy" j);
    energy_error = dflo what (mem what "energy_error" j);
    (* 0 = "not from a warm session": offered to Session.check as
       [against], a rehydrated report names no splice base. *)
    token = 0 }

(* ---- solver ----------------------------------------------------------- *)

let stop_to_string = function
  | Solver.Node_limit -> "node_limit"
  | Solver.Time_limit -> "time_limit"
  | Solver.Iter_limit -> "iter_limit"

let stop_of what = function
  | "node_limit" -> Solver.Node_limit
  | "time_limit" -> Solver.Time_limit
  | "iter_limit" -> Solver.Iter_limit
  | s -> fail "%s: unknown stop reason %S" what s

let crash_to_json (c : Solver.crash) =
  Json.Obj
    [ ("worker", Json.Int c.Solver.worker);
      ("depth", Json.Int c.Solver.depth);
      ( "path",
        Json.List (List.map (fun n -> Json.Int n) c.Solver.path) );
      ("message", Json.String c.Solver.message) ]

let crash_of what j =
  { Solver.worker = dint what (mem what "worker" j);
    depth = dint what (mem what "depth" j);
    path = dlist what (mem what "path" j) |> List.map (dint what);
    message = dstr what (mem what "message" j) }

let outcome_to_json = function
  | Solver.Optimal -> Json.Obj [ ("tag", Json.String "optimal") ]
  | Solver.Infeasible -> Json.Obj [ ("tag", Json.String "infeasible") ]
  | Solver.Unbounded -> Json.Obj [ ("tag", Json.String "unbounded") ]
  | Solver.Feasible r ->
    Json.Obj
      [ ("tag", Json.String "feasible");
        ("stop", Json.String (stop_to_string r)) ]
  | Solver.No_solution r ->
    Json.Obj
      [ ("tag", Json.String "no_solution");
        ("stop", Json.String (stop_to_string r)) ]
  | Solver.Degraded d ->
    Json.Obj
      [ ("tag", Json.String "degraded");
        ("crashes", Json.List (List.map crash_to_json d.Solver.crashes));
        ( "stopped",
          jopt (fun r -> Json.String (stop_to_string r)) d.Solver.stopped )
      ]

let outcome_of what j =
  match dstr what (mem what "tag" j) with
  | "optimal" -> Solver.Optimal
  | "infeasible" -> Solver.Infeasible
  | "unbounded" -> Solver.Unbounded
  | "feasible" -> Solver.Feasible (stop_of what (dstr what (mem what "stop" j)))
  | "no_solution" ->
    Solver.No_solution (stop_of what (dstr what (mem what "stop" j)))
  | "degraded" ->
    Solver.Degraded
      { Solver.crashes =
          dlist what (mem what "crashes" j) |> List.map (crash_of what);
        stopped =
          dopt (fun s -> stop_of what (dstr what s)) (mem what "stopped" j) }
  | tag -> fail "%s: unknown outcome tag %S" what tag

let solver_stats_to_json (s : Solver.stats) =
  Json.Obj
    [ ("nodes", Json.Int s.Solver.nodes);
      ("lp_solves", Json.Int s.Solver.lp_solves);
      ("lp_pivots", Json.Int s.Solver.lp_pivots);
      ("cache_hits", Json.Int s.Solver.cache_hits);
      ("cache_misses", Json.Int s.Solver.cache_misses);
      ("cache_evictions", Json.Int s.Solver.cache_evictions);
      ("steals", Json.Int s.Solver.steals);
      ("wall_seconds", jf s.Solver.wall_seconds);
      ("cpu_seconds", jf s.Solver.cpu_seconds);
      ("workers", Json.Int s.Solver.workers);
      ("worker_nodes", jints s.Solver.worker_nodes) ]

let solver_stats_of what j =
  { Solver.nodes = dint what (mem what "nodes" j);
    lp_solves = dint what (mem what "lp_solves" j);
    lp_pivots = dint what (mem what "lp_pivots" j);
    cache_hits = dint what (mem what "cache_hits" j);
    cache_misses = dint what (mem what "cache_misses" j);
    cache_evictions = dint what (mem what "cache_evictions" j);
    steals = dint what (mem what "steals" j);
    wall_seconds = dflo what (mem what "wall_seconds" j);
    cpu_seconds = dflo what (mem what "cpu_seconds" j);
    workers = dint what (mem what "workers" j);
    worker_nodes = dints what (mem what "worker_nodes" j) }

let solution_to_json (s : Simplex.solution) =
  Json.Obj
    [ ("objective", jf s.Simplex.objective);
      ("values", jfloats s.Simplex.values) ]

let solution_of what j =
  { Simplex.objective = dflo what (mem what "objective" j);
    values = dfloats what (mem what "values" j) }

(* ---- pipeline essence ------------------------------------------------- *)

let rung_to_json = function
  | Pipeline.Milp -> Json.Obj [ ("tag", Json.String "milp") ]
  | Pipeline.Milp_retry n ->
    Json.Obj [ ("tag", Json.String "milp_retry"); ("n", Json.Int n) ]
  | Pipeline.Rounded_lp -> Json.Obj [ ("tag", Json.String "rounded_lp") ]
  | Pipeline.Continuous_rounded ->
    Json.Obj [ ("tag", Json.String "continuous_rounded") ]
  | Pipeline.Single_mode -> Json.Obj [ ("tag", Json.String "single_mode") ]

let rung_of what j =
  match dstr what (mem what "tag" j) with
  | "milp" -> Pipeline.Milp
  | "milp_retry" -> Pipeline.Milp_retry (dint what (mem what "n" j))
  | "rounded_lp" -> Pipeline.Rounded_lp
  | "continuous_rounded" -> Pipeline.Continuous_rounded
  | "single_mode" -> Pipeline.Single_mode
  | tag -> fail "%s: unknown rung %S" what tag

let cause_to_string = function
  | Pipeline.Limit_hit -> "limit_hit"
  | Pipeline.Worker_crash -> "worker_crash"
  | Pipeline.Numeric -> "numeric"
  | Pipeline.Verify_reject -> "verify_reject"

let cause_of what = function
  | "limit_hit" -> Pipeline.Limit_hit
  | "worker_crash" -> Pipeline.Worker_crash
  | "numeric" -> Pipeline.Numeric
  | "verify_reject" -> Pipeline.Verify_reject
  | s -> fail "%s: unknown cause %S" what s

let descent_to_json (d : Pipeline.descent) =
  Json.Obj
    [ ("rung_failed", rung_to_json d.Pipeline.rung_failed);
      ("cause", Json.String (cause_to_string d.Pipeline.cause));
      ("detail", Json.String d.Pipeline.detail) ]

let descent_of what j =
  { Pipeline.rung_failed = rung_of what (mem what "rung_failed" j);
    cause = cause_of what (dstr what (mem what "cause" j));
    detail = dstr what (mem what "detail" j) }

type solve_essence = {
  e_outcome : Solver.outcome;
  e_solution : Simplex.solution option;
  e_bound : float;
  e_stats : Solver.stats;
  e_predicted_energy : float option;
  e_schedule : Schedule.t option;
  e_verification : Verify.report option;
  e_solve_seconds : float;
  e_rung : Pipeline.rung option;
  e_descents : Pipeline.descent list;
  e_continuous_bound : float option;
}

let essence_of_result (r : Pipeline.result) =
  { e_outcome = r.Pipeline.milp.Solver.outcome;
    e_solution = r.Pipeline.milp.Solver.solution;
    e_bound = r.Pipeline.milp.Solver.bound;
    e_stats = r.Pipeline.milp.Solver.stats;
    e_predicted_energy = r.Pipeline.predicted_energy;
    e_schedule = r.Pipeline.schedule;
    e_verification = r.Pipeline.verification;
    e_solve_seconds = r.Pipeline.solve_seconds;
    e_rung = r.Pipeline.rung;
    e_descents = r.Pipeline.descents;
    e_continuous_bound = r.Pipeline.continuous_bound }

let result_of_essence ~categories ~formulation ~independent_edges e =
  { Pipeline.categories;
    formulation;
    milp =
      { Solver.outcome = e.e_outcome;
        solution = e.e_solution;
        bound = e.e_bound;
        stats = e.e_stats };
    predicted_energy = e.e_predicted_energy;
    schedule = e.e_schedule;
    verification = e.e_verification;
    solve_seconds = e.e_solve_seconds;
    independent_edges;
    rung = e.e_rung;
    descents = e.e_descents;
    continuous_bound = e.e_continuous_bound }

let essence_fields imgs e =
  [ ("outcome", outcome_to_json e.e_outcome);
    ("solution", jopt solution_to_json e.e_solution);
    ("bound", jf e.e_bound);
    ("stats", solver_stats_to_json e.e_stats);
    ("predicted_energy", jopt jf e.e_predicted_energy);
    ("schedule", jopt schedule_to_json e.e_schedule);
    ("verification", jopt (report_to_json imgs) e.e_verification);
    ("solve_seconds", jf e.e_solve_seconds);
    ("rung", jopt rung_to_json e.e_rung);
    ("descents", Json.List (List.map descent_to_json e.e_descents));
    ("continuous_bound", jopt jf e.e_continuous_bound) ]

let essence_to_json e =
  let imgs = images () in
  let fields = essence_fields imgs e in
  Json.Obj (fields @ [ ("images", images_to_json imgs) ])

let essence_of what images j =
  { e_outcome = outcome_of what (mem what "outcome" j);
    e_solution = dopt (solution_of what) (mem what "solution" j);
    e_bound = dflo what (mem what "bound" j);
    e_stats = solver_stats_of what (mem what "stats" j);
    e_predicted_energy = dopt (dflo what) (mem what "predicted_energy" j);
    e_schedule = dopt (schedule_of what) (mem what "schedule" j);
    e_verification =
      dopt (report_of what images) (mem what "verification" j);
    e_solve_seconds = dflo what (mem what "solve_seconds" j);
    e_rung = dopt (rung_of what) (mem what "rung" j);
    e_descents =
      dlist what (mem what "descents" j) |> List.map (descent_of what);
    e_continuous_bound = dopt (dflo what) (mem what "continuous_bound" j) }

let essence_of_json j =
  wrap (fun j -> essence_of "solve" (images_of "solve" j) j) j

type sweep_essence = {
  se_points : solve_essence array;
  se_stats : Sweep.stats;
}

let sweep_stats_to_json (s : Sweep.stats) =
  Json.Obj
    [ ("instances_warm_started", Json.Int s.Sweep.instances_warm_started);
      ("points_pruned_by_bound", Json.Int s.Sweep.points_pruned_by_bound) ]

let sweep_stats_of what j =
  { Sweep.instances_warm_started =
      dint what (mem what "instances_warm_started" j);
    points_pruned_by_bound =
      dint what (mem what "points_pruned_by_bound" j) }

(* One image table for the whole grid: every verified point shares it. *)
let sweep_to_json s =
  let imgs = images () in
  let points =
    Array.to_list s.se_points
    |> List.map (fun e -> Json.Obj (essence_fields imgs e))
  in
  Json.Obj
    [ ("points", Json.List points);
      ("stats", sweep_stats_to_json s.se_stats);
      ("images", images_to_json imgs) ]

let sweep_of_json j =
  let what = "sweep" in
  wrap
    (fun j ->
      let images = images_of what j in
      { se_points =
          dlist what (mem what "points" j)
          |> List.map (essence_of what images)
          |> Array.of_list;
        se_stats = sweep_stats_of what (mem what "stats" j) })
    j

(* ---- key components --------------------------------------------------- *)

(* FNV-1a of the concatenated [string_of_int w ^ ","] of every word, fed
   into the hash state byte by byte instead of built as one string.  Keys
   and file names depend on this exact value. *)
let memory_fingerprint mem =
  let buf = Bytes.make word_buf_len ',' in
  let last = word_buf_len - 1 in
  let h = ref Key.fnv_offset in
  for i = 0 to Array.length mem - 1 do
    for j = render_word buf (Array.unsafe_get mem i) to last do
      h :=
        Int64.mul
          (Int64.logxor !h
             (Int64.of_int (Char.code (Bytes.unsafe_get buf j))))
          Key.fnv_prime
    done
  done;
  Key.hex64 !h

let geometry_component (g : Dvs_machine.Config.cache_geometry) =
  Key.L
    [ Key.I g.Dvs_machine.Config.size_bytes;
      Key.I g.Dvs_machine.Config.assoc;
      Key.I g.Dvs_machine.Config.block_bytes;
      Key.I g.Dvs_machine.Config.latency_cycles ]

let mode_table_component table =
  Key.L
    (List.map
       (fun (m : Mode.t) ->
         Key.L [ Key.F m.Mode.voltage; Key.F m.Mode.frequency ])
       (Mode.to_list table))

let regulator_component (r : Switch_cost.regulator) =
  Key.L
    [ Key.F r.Switch_cost.capacitance;
      Key.F r.Switch_cost.efficiency;
      Key.F r.Switch_cost.i_max ]

let machine_components ~prefix (c : Dvs_machine.Config.t) =
  let p n = prefix ^ n in
  [ (p "l1d", geometry_component c.Dvs_machine.Config.l1d);
    (p "l2", geometry_component c.Dvs_machine.Config.l2);
    (p "dram_latency", Key.F c.Dvs_machine.Config.dram_latency);
    (p "word_bytes", Key.I c.Dvs_machine.Config.word_bytes);
    (p "mode_table", mode_table_component c.Dvs_machine.Config.mode_table);
    (p "regulator", regulator_component c.Dvs_machine.Config.regulator);
    ( p "active_energy_coeff",
      Key.F c.Dvs_machine.Config.active_energy_coeff ) ]

let bool_component b = Key.I (if b then 1 else 0)

let solver_components (c : Solver.Config.t) =
  [ ("solver.jobs", Key.I c.Solver.Config.jobs);
    ("solver.max_nodes", Key.I c.Solver.Config.max_nodes);
    ( "solver.time_limit",
      match c.Solver.Config.time_limit with
      | None -> Key.L []
      | Some t -> Key.L [ Key.F t ] );
    ("solver.presolve", bool_component c.Solver.Config.presolve) ]

let pipeline_components (c : Pipeline.Config.t) =
  let r = c.Pipeline.Config.resilience in
  [ ("pipe.filter", bool_component c.Pipeline.Config.filter);
    ("pipe.cold_verify", bool_component c.Pipeline.Config.cold_verify);
    ( "pipe.continuous_bound",
      bool_component c.Pipeline.Config.continuous_bound );
    ("pipe.max_retries", Key.I r.Pipeline.Resilience.max_retries);
    ( "pipe.entry",
      Key.S
        (match r.Pipeline.Resilience.entry with
        | Pipeline.Resilience.From_milp -> "milp"
        | Pipeline.Resilience.From_rounded_lp -> "rounded_lp"
        | Pipeline.Resilience.From_single_mode -> "single_mode") ) ]
