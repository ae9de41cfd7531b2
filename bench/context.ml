(* Shared, lazily cached data for the experiment harness: compiled
   workloads and per-(workload, input, mode-table) profiles.  Profiling is
   the expensive step (one recorded simulation, re-costed per mode), so
   every experiment goes through this cache. *)

open Dvs_workloads

type table_kind = Xscale3 | Levels of int

(* Every harness regulator is [Switch_cost.regulator ~capacitance] at its
   default efficiency and current, so its capacitance names it. *)
let config_of ?(regulator = Dvs_power.Switch_cost.default) kind =
  Workload.machine
    ?levels:(match kind with Xscale3 -> None | Levels n -> Some n)
    ~capacitance:regulator.Dvs_power.Switch_cost.capacitance ()

(* Shared metrics registry for the whole sweep: every solve the harness
   runs reports into it, and `--emit-bench' derives BENCH_milp.json from
   its totals.  Metrics only — a trace log would saturate its capacity
   over hundreds of solves.  Defined up here so the store can report its
   hit/miss counters into the same registry. *)
let obs = Dvs_obs.metrics_only ()

(* The content-addressed experiment store (DESIGN.md section 14): every
   profile collection, MILP solve and deadline sweep the harness runs is
   keyed by its fingerprinted inputs and persisted, so a second bench
   run recomputes only what a change actually invalidated.  DVS_STORE
   selects the root (default `_store', gitignored); "off"/"0"/"" runs
   everything live. *)
let store =
  match Sys.getenv_opt Dvs_store.Store.env_var with
  | Some ("off" | "0" | "") -> None
  | Some root -> Some (Dvs_store.Store.open_ ~obs ~root ())
  | None ->
    Some (Dvs_store.Store.open_ ~obs ~root:Dvs_store.Store.default_root ())

let profile_cache : (string * string * table_kind, Dvs_profile.Profile.t) Hashtbl.t =
  Hashtbl.create 32

let profile ?(kind = Xscale3) ~input name =
  match Hashtbl.find_opt profile_cache (name, input, kind) with
  | Some p -> p
  | None ->
    let w = Workload.find name in
    let cfg, _, mem = Workload.load w ~input in
    let p =
      Dvs_store.Exec.profile ?store ~source:(name ^ ":" ^ input)
        (config_of kind) cfg ~memory:mem
    in
    Hashtbl.replace profile_cache (name, input, kind) p;
    p

let default_profile ?kind name =
  profile ?kind ~input:(Workload.default_input (Workload.find name)) name

let memory ~input name =
  let w = Workload.find name in
  let _, _, mem = Workload.load w ~input in
  mem

let default_memory name =
  memory ~input:(Workload.default_input (Workload.find name)) name

let cfg_of name =
  let w = Workload.find name in
  let cfg, _, _ = Workload.load w ~input:(Workload.default_input w) in
  cfg

(* The six benchmarks in the paper's usual presentation order, and the
   four used in Tables 1/6/7. *)
let all_names = [ "adpcm"; "epic"; "gsm"; "mpeg"; "ghostscript"; "mpg123" ]

let analytical_names = [ "adpcm"; "epic"; "gsm"; "mpeg" ]

(* Table-4-style deadlines, from the xscale3 pinned runs. *)
let deadlines name = Deadlines.of_profile (default_profile name)

(* Our workloads run ~25x shorter than the paper's MediaBench binaries
   (DESIGN.md section 5), while Burd-Brodersen transition costs are
   absolute.  To keep the cost *ratio* (transition time / run time) at
   the paper's operating point, the experiments use the paper-equivalent
   regulator capacitance divided by the time scale: "c = 10uF (paper)"
   means 0.4uF here, still yielding the paper's 12us/1.2uJ per switch
   relative to a paper-scale run. *)
let time_scale = 25.0

let scaled_regulator ~paper_capacitance =
  Dvs_power.Switch_cost.regulator
    ~capacitance:(paper_capacitance /. time_scale) ()

let default_regulator = scaled_regulator ~paper_capacitance:10e-6

(* Shared LP-relaxation cache: the sweep experiments re-solve
   near-identical models (same formulation, repeated warm-start seeds and
   root relaxations), which this short-circuits.  Only the basis-free
   solves, a root and a seed, consult it: every node below the root
   warm starts from its parent's basis instead. *)
let lp_cache = Dvs_milp.Lp_cache.create ~max_entries:16384 ()

(* Shared verification sessions, one per (workload, input, mode table,
   regulator): every experiment that re-verifies schedules of the same
   compiled binary replays the session's recorded tape instead of paying
   a fresh cycle-accurate simulation per schedule (DESIGN.md section
   12).  The regulator is part of the key because transition costs are
   machine-config state inside the session. *)
let session_cache :
    ( string * string * table_kind * Dvs_power.Switch_cost.regulator,
      Dvs_core.Verify.Session.t )
    Hashtbl.t =
  Hashtbl.create 16

let session ?(kind = Xscale3) ~regulator ~input name =
  let key = (name, input, kind, regulator) in
  match Hashtbl.find_opt session_cache key with
  | Some s -> s
  | None ->
    let w = Workload.find name in
    let cfg, _, mem = Workload.load w ~input in
    let s =
      Dvs_core.Verify.Session.create (config_of ~regulator kind) cfg
        ~memory:mem
    in
    Hashtbl.replace session_cache key s;
    s

(* MILP configuration used throughout the harness: bounded so no single
   cell can hang the run; jobs=1 keeps table cells comparable with the
   paper's single-core CPLEX times (the `jobs' experiment sweeps it). *)
let solver_config ?(jobs = 1) () =
  Dvs_milp.Solver.Config.make ~jobs ~max_nodes:4000 ~time_limit:15.0
    ~cache:lp_cache ~obs ()

let pipeline_config =
  Dvs_core.Pipeline.Config.make ~solver:(solver_config ()) ()

(* One MILP run on a workload with caching of profiles and root LP
   relaxations only.  [solver] overrides the shared harness solver
   config (the sweep-vs-cold experiment isolates each leg's cache and
   metrics registry this way). *)
let optimize ?(kind = Xscale3) ?(filter = true) ?jobs ?regulator ?input
    ?solver name ~deadline =
  let input =
    match input with
    | Some i -> i
    | None -> Workload.default_input (Workload.find name)
  in
  let p = profile ~kind ~input name in
  let regulator =
    match regulator with Some r -> r | None -> default_regulator
  in
  let solver =
    match solver with Some s -> s | None -> solver_config ?jobs ()
  in
  let config =
    { pipeline_config with Dvs_core.Pipeline.Config.filter; solver }
  in
  Dvs_store.Exec.optimize_multi ?store ~config
    ~verify_config:(config_of ~regulator kind)
    ~session:(fun () -> session ~kind ~regulator ~input name)
    ~regulator
    ~memory:(memory ~input name)
    [ { Dvs_core.Formulation.profile = p; weight = 1.0; deadline } ]

(* A whole deadline grid in one call, through the parametric sweep
   engine (tightest-first incumbent lifting, continuous-bound
   pruning). *)
let optimize_sweep ?(kind = Xscale3) ?(filter = true) ?jobs ?regulator ?input
    ?solver name ~deadlines =
  let w = Workload.find name in
  let input =
    match input with Some i -> i | None -> Workload.default_input w
  in
  let p = profile ~kind ~input name in
  let regulator =
    match regulator with Some r -> r | None -> default_regulator
  in
  let solver =
    match solver with Some s -> s | None -> solver_config ?jobs ()
  in
  let config =
    { pipeline_config with Dvs_core.Pipeline.Config.filter; solver }
  in
  let machine = config_of ~regulator kind in
  let cfg, _, mem = Workload.load w ~input in
  Dvs_store.Exec.optimize_sweep ?store ~config ~verify_config:machine
    ~profile:p
    ~session:(fun () -> session ~kind ~regulator ~input name)
    machine cfg ~memory:mem ~deadlines
