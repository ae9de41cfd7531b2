(* Parallel, warm-started branch and bound over the Dvs_lp.Simplex
   relaxation — the single MILP entry point for the pipeline, the CLI and
   the experiment harness.

   Architecture:
   - one Domain per job; each worker owns a best-bound Work_queue of open
     nodes, pushes the children it generates locally, and steals the best
     node of a victim when its own queue runs dry;
   - every node below the root warm starts its LP from the parent's
     optimal basis (Simplex.solve_compiled), re-pivoting instead of
     re-running two-phase from scratch;
   - a node's own LP pins the factor it finished on in the worker's
     workspace, so the rounding LP, the probes and the root dive that
     start from the node's basis skip their factorization; the pin is
     dropped when the node is done, so every node's own solve factors
     afresh whichever worker runs it;
   - the basis-free solves (the root and the warm-start seed) go through
     a fingerprint-keyed Lp_cache that can be shared across solves, which
     is what the bench sweep drivers do;
   - one branching rule: GUB dichotomy on SOS1 mode groups and floor/ceil
     on leftover integers, picked by reliability pseudocosts;
   - the incumbent is merged deterministically: strictly better objective
     wins, an exactly equal objective is tie-broken toward the
     lexicographically smallest node path, so the reported objective is
     reproducible regardless of worker count.

   Determinism argument (why jobs=1 and jobs=4 report the same
   objective): a node is fathomed only when its parent-relaxation bound
   is within gap_rel slack of the current incumbent, and the incumbent
   only improves over time, so no fathoming can discard a solution more
   than gap_rel better than the final incumbent — in particular, with a
   1e-9 relative gap the optimum itself always survives to be found.
   Only basis-free solves are cached, so a cached entry is a pure
   function of its key and never depends on which worker computed it
   first. *)

open Dvs_lp

module Config = struct
  type t = {
    jobs : int;
    max_nodes : int;
    time_limit : float option;
    sos1 : Model.var list list;
    warm_start : (Model.var * float) list;
    warm_solution : Simplex.solution option;
    root_bound : float option;
    cache : Lp_cache.t option;
    fault : Fault.t option;
    obs : Dvs_obs.t;
    presolve : bool;
    fixings : (Model.var * float) list;
  }

  let make ?jobs ?(max_nodes = 200_000) ?time_limit ?cache ?fault
      ?(obs = Dvs_obs.disabled) ?(presolve = true) () =
    let jobs =
      match jobs with
      | Some j when j >= 1 -> j
      | Some _ -> invalid_arg "Solver.Config.make: jobs must be >= 1"
      | None -> Domain.recommended_domain_count ()
    in
    { jobs; max_nodes; time_limit; sos1 = []; warm_start = [];
      warm_solution = None; root_bound = None; cache; fault; obs;
      presolve; fixings = [] }

  let default = make ()

  let with_sos1 sos1 t = { t with sos1 }

  let with_warm_start warm_start t = { t with warm_start }

  let with_warm_solution s t = { t with warm_solution = Some s }

  let with_root_bound b t =
    if not (Float.is_finite b) then
      invalid_arg "Solver.Config.with_root_bound: bound must be finite";
    { t with root_bound = Some b }

  let with_fixings fixings t = { t with fixings }

  let with_fault fault t = { t with fault = Some fault }

  let with_obs obs t = { t with obs }
end

let gap_rel = 1e-9

(* Integrality tolerance of relaxation values. *)
let int_tol = 1e-6

(* Distance to the nearest integer: the one measure every integrality
   test and the branching scan read, so a node that fails [is_integral]
   always has a fractional entity. *)
let int_dist x = Float.abs (x -. Float.round x)

(* Pseudocost reliability threshold: an entity with fewer observed gains
   per direction is probed with a pivot-capped LP before its score is
   trusted. *)
let reliability = 4

type stop_reason = Node_limit | Time_limit | Iter_limit

let pp_stop_reason ppf r =
  Format.pp_print_string ppf
    (match r with
    | Node_limit -> "node limit"
    | Time_limit -> "time limit"
    | Iter_limit -> "simplex iteration limit")

type crash = {
  worker : int;
  depth : int;
  path : int list;
  message : string;
}

type degradation = {
  crashes : crash list;
  stopped : stop_reason option;
}

type outcome =
  | Optimal
  | Feasible of stop_reason
  | Infeasible
  | Unbounded
  | No_solution of stop_reason
  | Degraded of degradation

let pp_outcome ppf = function
  | Optimal -> Format.pp_print_string ppf "optimal"
  | Feasible r -> Format.fprintf ppf "feasible (%a hit)" pp_stop_reason r
  | Infeasible -> Format.pp_print_string ppf "infeasible"
  | Unbounded -> Format.pp_print_string ppf "unbounded"
  | No_solution r -> Format.fprintf ppf "no solution (%a hit)" pp_stop_reason r
  | Degraded { crashes; stopped } ->
    let n = List.length crashes in
    Format.fprintf ppf "degraded (%d worker crash%s contained%a)" n
      (if n = 1 then "" else "es")
      (fun ppf -> function
        | Some r -> Format.fprintf ppf ", %a hit" pp_stop_reason r
        | None -> ())
      stopped

type stats = {
  nodes : int;
  lp_solves : int;
  lp_pivots : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  steals : int;
  wall_seconds : float;
  cpu_seconds : float;
  workers : int;
  worker_nodes : int array;
}

let worker_utilization s =
  let mx = Array.fold_left Int.max 0 s.worker_nodes in
  if mx = 0 then 1.0
  else
    let total = Array.fold_left ( + ) 0 s.worker_nodes in
    float_of_int total /. (float_of_int mx *. float_of_int s.workers)

let pp_stats ppf s =
  Format.fprintf ppf
    "%d nodes, %d LP solves, %d pivots, cache %d/%d (%d evicted), %d \
     steal%s, %.3fs wall / %.3fs cpu, %d worker%s (util %.0f%%)"
    s.nodes s.lp_solves s.lp_pivots s.cache_hits
    (s.cache_hits + s.cache_misses) s.cache_evictions s.steals
    (if s.steals = 1 then "" else "s")
    s.wall_seconds s.cpu_seconds s.workers
    (if s.workers = 1 then "" else "s")
    (100.0 *. worker_utilization s)

type result = {
  outcome : outcome;
  solution : Simplex.solution option;
  bound : float;
  stats : stats;
}

(* An open node: bound overrides relative to the base model, the parent
   relaxation's objective (a valid bound on the subtree), and the branch
   path from the root (innermost decision first) — the deterministic node
   identity used for incumbent tie-breaking. *)
type node = {
  overrides : (Model.var * float * float) list;
  bound : float;
  depth : int;
  path : int list;
  basis : Simplex.basis option;
  pc : (int * int) option;
      (* (branch entity, direction 0/1) that created this node, for
         pseudocost feedback once its relaxation is solved *)
}

(* Effective bounds of [v] at a node: innermost override wins (overrides
   are consed, so the first match is the most recent). *)
let effective_bounds model overrides v =
  match List.find_opt (fun (v', _, _) -> v' = v) overrides with
  | Some (_, lb, ub) -> (lb, ub)
  | None -> Model.bounds model v

(* Canonical fixing list for cache keys: innermost override per variable,
   sorted by variable index. *)
let canonical_fixings overrides =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (v, lb, ub) -> if not (Hashtbl.mem tbl v) then Hashtbl.add tbl v (lb, ub))
    overrides;
  Hashtbl.fold (fun v (lb, ub) acc -> (v, lb, ub) :: acc) tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let most_fractional int_vars (sol : Simplex.solution) =
  let best = ref None in
  List.iter
    (fun v ->
      let dist = int_dist sol.values.(v) in
      if dist > int_tol then
        match !best with
        | Some (_, d) when d >= dist -> ()
        | _ -> best := Some (v, dist))
    int_vars;
  Option.map fst !best

(* Root-first lexicographic order on branch paths; paths are stored
   innermost-first, so reverse before comparing. *)
let path_compare a b = compare (List.rev a) (List.rev b)

let solve ?(config = Config.default) model =
  let open Config in
  let sense, _ = Model.objective model in
  (* [better a b]: objective [a] beats [b]. *)
  let better a b =
    match sense with Model.Minimize -> a < b | Maximize -> a > b
  in
  let worst = match sense with Model.Minimize -> infinity | _ -> neg_infinity in
  (* Presolve once per solve: the reduced model is what the search
     actually branches on, and solutions are lifted back to the original
     variable space at the very end.  A presolve-proven infeasibility
     yields a trivially infeasible stub whose root relaxation reports
     Infeasible through the normal path, so no special-casing below. *)
  let pre =
    if config.presolve then
      Some
        (Presolve.presolve ~fixings:config.fixings ~groups:config.sos1 model)
    else None
  in
  let wm = match pre with Some p -> Presolve.reduced p | None -> model in
  let map_var v =
    match pre with
    | None -> Some v
    | Some p ->
      let vm = Presolve.var_map p in
      if v >= 0 && v < Array.length vm && vm.(v) >= 0 then Some vm.(v)
      else None
  in
  let sos1 =
    List.filter_map
      (fun g ->
        match List.filter_map map_var g with
        | [] | [ _ ] -> None (* fully decided by presolve *)
        | g' -> Some g')
      config.sos1
  in
  let warm_start =
    List.filter_map
      (fun (v, x) -> Option.map (fun v' -> (v', x)) (map_var v))
      config.warm_start
  in
  (* Lift a reduced-space solution back to original variable indices;
     the objective value is unchanged (eliminated contributions live in
     the reduced objective's constant). *)
  let lift (s : Simplex.solution) =
    match pre with
    | None -> s
    | Some p -> { s with Simplex.values = Presolve.postsolve p s.values }
  in
  (* Compile the reduced model once; every relaxation in the tree is a
     bound-override solve against this shared structure. *)
  let compiled = Compiled.of_model wm in
  let int_vars = Model.integer_vars wm in
  let wall_start = Unix.gettimeofday () in
  let cpu_start = Sys.time () in
  (* Observability: counters/histograms are no-ops on the disabled
     registry; trace emission sites that build attribute lists are
     additionally guarded by [obs_on] so a production solve allocates
     nothing for them. *)
  let tr = Dvs_obs.trace config.obs in
  let mx = Dvs_obs.metrics config.obs in
  let obs_on = Dvs_obs.enabled config.obs in
  let module Mc = Dvs_obs.Metrics.Counter in
  let module Tr = Dvs_obs.Trace in
  let c_nodes = Dvs_obs.Metrics.counter mx ~stability:Volatile "solver.nodes" in
  let c_steals =
    Dvs_obs.Metrics.counter mx ~stability:Volatile "solver.steals"
  in
  let c_lp =
    Dvs_obs.Metrics.counter mx ~stability:Volatile "solver.lp_solves"
  in
  let c_pivots =
    Dvs_obs.Metrics.counter mx ~stability:Volatile "solver.lp_pivots"
  in
  let c_solves =
    Dvs_obs.Metrics.counter mx ~stability:Volatile "solver.solves"
  in
  let c_cache_hits =
    Dvs_obs.Metrics.counter mx ~stability:Volatile "lp_cache.hits"
  in
  let c_cache_misses =
    Dvs_obs.Metrics.counter mx ~stability:Volatile "lp_cache.misses"
  in
  let c_cache_evictions =
    Dvs_obs.Metrics.counter mx ~stability:Volatile "lp_cache.evictions"
  in
  let h_solve =
    Dvs_obs.Metrics.histogram mx ~stability:Volatile "solver.solve_seconds"
  in
  (* LP-kernel observability: presolve reductions are deterministic per
     model (Stable); pivot-shape counters depend on which nodes the
     schedule explores (Volatile). *)
  let c_pre_rows =
    Dvs_obs.Metrics.counter mx ~stability:Stable "lp.presolve_rows_removed"
  in
  let c_pre_cols =
    Dvs_obs.Metrics.counter mx ~stability:Stable "lp.presolve_cols_removed"
  in
  let c_saved_warm =
    Dvs_obs.Metrics.counter mx ~stability:Volatile "lp.pivots_saved_warm"
  in
  let c_dual_pivots =
    Dvs_obs.Metrics.counter mx ~stability:Volatile "lp.pivots_dual"
  in
  let c_bland_pivots =
    Dvs_obs.Metrics.counter mx ~stability:Volatile "lp.pivots_bland"
  in
  let c_flips =
    Dvs_obs.Metrics.counter mx ~stability:Volatile "lp.bound_flips"
  in
  let c_flops = Dvs_obs.Metrics.counter mx ~stability:Volatile "lp.flops" in
  (* LU basis audit trail: how often the basis was refactorized, how
     much fill the factorizations carried, how large the eta files grew,
     and how much solve work hypersparsity skipped outright. *)
  let c_lu_refacts =
    Dvs_obs.Metrics.counter mx ~stability:Volatile "lu.refactorizations"
  in
  let c_lu_restores =
    Dvs_obs.Metrics.counter mx ~stability:Volatile "lu.restores"
  in
  (* The finish's residual check on the held factor: the worst scaled row
     residual seen, and how often it forced a refactorization. *)
  let g_residual_max =
    Dvs_obs.Metrics.gauge mx ~stability:Volatile "lu.residual_max"
  in
  let c_residual_refactors =
    Dvs_obs.Metrics.counter mx ~stability:Volatile "lu.residual_refactors"
  in
  let c_lu_fill =
    Dvs_obs.Metrics.counter mx ~stability:Volatile "lu.fill_in_nnz"
  in
  let c_lu_eta = Dvs_obs.Metrics.counter mx ~stability:Volatile "lu.eta_nnz" in
  let c_lu_fhits =
    Dvs_obs.Metrics.counter mx ~stability:Volatile "lu.ftran_sparse_hits"
  in
  let c_lu_bhits =
    Dvs_obs.Metrics.counter mx ~stability:Volatile "lu.btran_sparse_hits"
  in
  let c_pc_branches =
    Dvs_obs.Metrics.counter mx ~stability:Volatile "bb.pseudocost_branches"
  in
  let c_probes_capped =
    Dvs_obs.Metrics.counter mx ~stability:Volatile "bb.probes_capped"
  in
  (* Root dual bounds from the continuous relaxation are a pure function
     of the caller's config, so the counter replays stably from the
     experiment store. *)
  let c_root_bound =
    Dvs_obs.Metrics.counter mx ~stability:Stable
      "bb.root_bound_from_continuous"
  in
  let solve_span =
    if obs_on then
      Tr.start tr "solver.solve"
        ~attrs:
          [ ("jobs", Tr.Int config.jobs);
            ("max_nodes", Tr.Int config.max_nodes);
            ("int_vars", Tr.Int (List.length int_vars)) ]
    else Tr.start Tr.disabled "solver.solve"
  in
  let out_of_time () =
    match config.time_limit with
    | Some l -> Unix.gettimeofday () -. wall_start > l
    | None -> false
  in
  let cache =
    match config.cache with Some c -> c | None -> Lp_cache.create ()
  in
  let cache0 = Lp_cache.stats cache in
  let fp = Compiled.fingerprint compiled in
  (* ---- shared search state ---- *)
  let n_workers = config.jobs in
  (* Per-worker LP state: a scratch view of the compiled model (own bound
     arrays, shared matrix) and a reusable simplex workspace, so the
     pivot loop allocates nothing per node. *)
  let scratches = Array.init n_workers (fun _ -> Compiled.scratch compiled) in
  let workspaces = Array.init n_workers (fun _ -> Simplex.workspace ()) in
  let a_dual = Atomic.make 0 in
  let a_flips = Atomic.make 0 in
  let a_bland = Atomic.make 0 in
  let a_flops = Atomic.make 0 in
  let a_saved = Atomic.make 0 in
  let a_lu_refacts = Atomic.make 0 in
  let a_lu_restores = Atomic.make 0 in
  let a_residual_refactors = Atomic.make 0 in
  (* Written by its own worker only, read after join. *)
  let residual_max = Array.make n_workers 0.0 in
  let a_lu_fill = Atomic.make 0 in
  let a_lu_eta = Atomic.make 0 in
  let a_lu_fhits = Atomic.make 0 in
  let a_lu_bhits = Atomic.make 0 in
  (* Pivot count of the first basis-free solve: the cold-start cost a
     warm-started node would otherwise pay, used to estimate
     lp.pivots_saved_warm. *)
  let baseline_pivots = Atomic.make (-1) in
  let inc_lock = Mutex.create () in
  let incumbent : (Simplex.solution * int list) option ref = ref None in
  let inc_obj = Atomic.make worst in
  let nodes = Atomic.make 0 in
  let lp_solves = Atomic.make 0 in
  let lp_pivots = Atomic.make 0 in
  let in_flight = Atomic.make 0 in
  let stop : stop_reason option Atomic.t = Atomic.make None in
  let unbounded = Atomic.make false in
  (* Contained worker crashes (newest first), with the crashed node's
     bound so the reported [bound] stays valid for the lost subtree. *)
  let crash_lock = Mutex.create () in
  let crash_log : (crash * float) list ref = ref [] in
  let record_crash c bound =
    Mutex.lock crash_lock;
    crash_log := (c, bound) :: !crash_log;
    Mutex.unlock crash_lock
  in
  let request_stop r = ignore (Atomic.compare_and_set stop None (Some r)) in
  let stopping () = Atomic.get stop <> None || Atomic.get unbounded in
  (* A caller-provided known-feasible solution (original variable space)
     seeds the incumbent objective without any LP solve; it is returned
     verbatim unless the search finds something strictly better, so a
     caller chaining solves (the sweep's incumbent lifting) gets
     bit-identical solutions whether or not the search was pruned away
     entirely. *)
  let seed_solution = config.warm_solution in
  (match seed_solution with
  | Some s ->
    Atomic.set inc_obj s.Simplex.objective;
    (* Runs before the pool starts: stable across job counts. *)
    if obs_on then
      Tr.event tr ~stability:Tr.Stable "solver.warm_solution"
        ~attrs:[ ("objective", Tr.Float s.Simplex.objective) ]
  | None -> ());
  (* Every incumbent has its integers snapped exactly, every value
     clamped into its pristine bounds and its objective evaluated at that
     point: basic binaries sit at 1 - 1e-10 or so, and basic continuous
     values up to a few 1e-9 past a bound, by amounts that depend on the
     factor the solve finished on. *)
  let try_incumbent path (s : Simplex.solution) =
    let values = Array.copy s.values in
    List.iter (fun v -> values.(v) <- Float.round values.(v)) int_vars;
    Array.iteri
      (fun j x ->
        values.(j) <-
          Float.min compiled.Compiled.ub0.(j)
            (Float.max compiled.Compiled.lb0.(j) x))
      values;
    let s =
      { Simplex.objective = Compiled.objective compiled values; values }
    in
    Mutex.lock inc_lock;
    let take =
      match !incumbent with
      | None ->
        (* The seed occupies inc_obj without a solution object: only a
           strict improvement may displace it. *)
        (not (Float.is_finite (Atomic.get inc_obj)))
        || better s.objective (Atomic.get inc_obj)
      | Some (_, p0) ->
        better s.objective (Atomic.get inc_obj)
        || (s.objective = Atomic.get inc_obj && path_compare path p0 < 0)
    in
    if take then begin
      incumbent := Some (s, path);
      Atomic.set inc_obj s.objective
    end;
    Mutex.unlock inc_lock;
    if take && obs_on then
      Tr.event tr "solver.incumbent"
        ~attrs:[ ("objective", Tr.Float s.objective) ]
  in
  let gap_prune bound =
    let inc = Atomic.get inc_obj in
    Float.is_finite inc
    &&
    let slack = gap_rel *. Float.max 1.0 (Float.abs inc) in
    match sense with
    | Model.Minimize -> bound >= inc -. slack
    | Maximize -> bound <= inc +. slack
  in
  let is_integral (s : Simplex.solution) =
    List.for_all (fun v -> int_dist s.values.(v) <= int_tol) int_vars
  in
  (* LP solves, with pivot accounting.  A node solve applies its bound
     overrides to the worker's scratch view of the compiled model, solves
     in place with the worker's reusable workspace, then restores the
     touched bounds — no model copy, no per-node allocation beyond the
     returned solution. *)
  let lp_solve ?basis ?iter_cap ?pin ~wid overrides =
    Atomic.incr lp_solves;
    let max_iter =
      match config.fault with
      | Some f ->
        let ordinal, budget = Fault.pivot_budget f in
        if budget <> None && obs_on then
          Tr.event tr "fault.pivot_exhaustion" ~stability:Tr.Stable
            ~attrs:[ ("ordinal", Tr.Int ordinal) ];
        budget
      | None -> None
    in
    let max_iter =
      match (max_iter, iter_cap) with
      | Some a, Some b -> Some (Int.min a b)
      | Some a, None -> Some a
      | None, b -> b
    in
    let sc = scratches.(wid) in
    let fixings = canonical_fixings overrides in
    List.iter (fun (v, lb, ub) -> Compiled.set_bounds sc v ~lb ~ub) fixings;
    let st, b, (sst : Simplex.stats) =
      Simplex.solve_compiled ?max_iter ?basis ~ws:workspaces.(wid) ?pin sc
    in
    List.iter (fun (v, _, _) -> Compiled.reset_bounds sc v) fixings;
    ignore (Atomic.fetch_and_add lp_pivots sst.Simplex.pivots);
    ignore (Atomic.fetch_and_add a_dual sst.Simplex.dual_pivots);
    ignore (Atomic.fetch_and_add a_flips sst.Simplex.bound_flips);
    ignore (Atomic.fetch_and_add a_bland sst.Simplex.bland_pivots);
    ignore (Atomic.fetch_and_add a_flops sst.Simplex.flops);
    ignore (Atomic.fetch_and_add a_lu_refacts sst.Simplex.lu_refactorizations);
    ignore (Atomic.fetch_and_add a_lu_restores sst.Simplex.lu_restores);
    ignore
      (Atomic.fetch_and_add a_residual_refactors
         sst.Simplex.residual_refactors);
    if sst.Simplex.residual_max > residual_max.(wid) then
      residual_max.(wid) <- sst.Simplex.residual_max;
    ignore (Atomic.fetch_and_add a_lu_fill sst.Simplex.lu_fill_in_nnz);
    ignore (Atomic.fetch_and_add a_lu_eta sst.Simplex.lu_eta_nnz);
    ignore (Atomic.fetch_and_add a_lu_fhits sst.Simplex.ftran_sparse_hits);
    ignore (Atomic.fetch_and_add a_lu_bhits sst.Simplex.btran_sparse_hits);
    (match basis with
    | None ->
      ignore
        (Atomic.compare_and_set baseline_pivots (-1) sst.Simplex.pivots)
    | Some _ ->
      let base = Atomic.get baseline_pivots in
      if base > 0 then
        ignore
          (Atomic.fetch_and_add a_saved
             (Int.max 0 (base - sst.Simplex.pivots))));
    (st, b)
  in
  (* A solve with a basis warm starts from it; a basis-free one (the root,
     the warm-start seed) goes through the cache, so an entry never
     depends on the path or the worker that solved it first.  [pin]
     reaches only a solve that runs: a cache hit leaves the workspace
     holding some other basis's factor, so it pins nothing. *)
  let solve_relaxation ?basis ?pin ~wid overrides =
    match basis with
    | Some _ -> lp_solve ?basis ?pin ~wid overrides
    | None ->
      let forced_miss =
        match config.fault with
        | Some f ->
          let ordinal, miss = Fault.force_cache_miss f in
          if miss && obs_on then
            Tr.event tr "fault.cache_miss"
              ~attrs:[ ("ordinal", Tr.Int ordinal) ];
          miss
        | None -> false
      in
      if forced_miss then lp_solve ?pin ~wid overrides
      else
        Lp_cache.find_or_add cache ~fingerprint:fp
          ~fixings:(canonical_fixings overrides)
          (fun () -> lp_solve ?pin ~wid overrides)
  in
  (* Rounding heuristic, run at every fractional node: SOS1 groups round
     to their largest member (one on, rest off, respecting fixed bounds);
     remaining integers round to the nearest value.  Complete with an LP
     warm started from the node's basis. *)
  let in_sos1 =
    let tbl = Hashtbl.create 16 in
    List.iter (fun g -> List.iter (fun v -> Hashtbl.replace tbl v ()) g) sos1;
    fun v -> Hashtbl.mem tbl v
  in
  let rounding_pass ?basis ~wid path overrides (s : Simplex.solution) =
    if int_vars <> [] then begin
      (* Rounded fixings are consed onto the node's overrides; consing
         later means innermost, so they win in [effective_bounds] and in
         [canonical_fixings] inside [lp_solve]. *)
      let fixes = ref overrides in
      let bounds_of v = effective_bounds wm !fixes v in
      let ok = ref true in
      List.iter
        (fun group ->
          (* Largest-value member whose bounds still allow 1. *)
          let best = ref None in
          List.iter
            (fun v ->
              let _, ub = bounds_of v in
              if ub >= 1.0 then
                match !best with
                | Some (_, x) when x >= s.values.(v) -> ()
                | _ -> best := Some (v, s.values.(v)))
            group;
          match !best with
          | None -> ok := false
          | Some (winner, _) ->
            List.iter
              (fun v ->
                let lb, ub = bounds_of v in
                let x = if v = winner then 1.0 else 0.0 in
                if x < lb || x > ub then ok := false
                else fixes := (v, x, x) :: !fixes)
              group)
        sos1;
      List.iter
        (fun v ->
          if not (in_sos1 v) then begin
            let lb, ub = bounds_of v in
            let x = Float.max lb (Float.min ub (Float.round s.values.(v))) in
            if int_dist x <= int_tol then
              fixes := (v, x, x) :: !fixes
            else ok := false
          end)
        int_vars;
      if !ok then begin
        match lp_solve ?basis ~wid !fixes with
        | Simplex.Optimal s', _ -> try_incumbent path s'
        | (Simplex.Infeasible | Simplex.Unbounded | Simplex.Iter_limit _), _
          -> ()
      end
    end
  in
  (* Diving heuristic: walk down from a relaxation by fixing the most
     fractional integer each step (one flip retry on infeasibility).
     Produces an early incumbent when plain rounding violates a tight
     constraint. *)
  let dive ~wid path overrides basis0 (s0 : Simplex.solution) =
    let budget = ref (2 * List.length int_vars) in
    let rec go overrides basis (s : Simplex.solution) =
      if !budget <= 0 then ()
      else begin
        decr budget;
        match most_fractional int_vars s with
        | None -> try_incumbent path s
        | Some v ->
          let lb, ub = effective_bounds wm overrides v in
          let x = Float.round s.values.(v) in
          let x = Float.max lb (Float.min ub x) in
          let try_fix x =
            let overrides' = (v, x, x) :: overrides in
            match lp_solve ?basis ~wid overrides' with
            | Simplex.Optimal s', b' -> Some (overrides', b', s')
            | (Simplex.Infeasible | Simplex.Unbounded
              | Simplex.Iter_limit _), _ -> None
          in
          let alt =
            (* The other admissible integer next to the relaxation value. *)
            let x' =
              if x > s.values.(v) then Float.floor s.values.(v)
              else Float.ceil s.values.(v)
            in
            if x' >= lb && x' <= ub && x' <> x then Some x' else None
          in
          (match try_fix x with
          | Some (o', b', s') -> go o' b' s'
          | None -> (
            match alt with
            | Some x' -> (
              match try_fix x' with
              | Some (o', b', s') -> go o' b' s'
              | None -> ())
            | None -> ()))
      end
    in
    go overrides basis0 s0
  in
  (* ---- pseudocost / GUB branching state ---- *)
  (* Branch entities: one per surviving SOS1 mode group (GUB dichotomy on
     the member prefix) plus one per integer variable outside any group
     (classic floor/ceil).  Pseudocosts are kept per entity and
     direction, shared across workers under one small lock — updates are
     per-node, never per-pivot. *)
  let entities =
    let in_group = Hashtbl.create 16 in
    List.iter
      (fun g -> List.iter (fun v -> Hashtbl.replace in_group v ()) g)
      sos1;
    Array.of_list
      (List.map (fun g -> `Group (Array.of_list g)) sos1
      @ List.filter_map
          (fun v -> if Hashtbl.mem in_group v then None else Some (`Var v))
          int_vars)
  in
  let n_entities = Array.length entities in
  let pc_lock = Mutex.create () in
  let pc_sum = Array.make (2 * n_entities) 0.0 in
  let pc_cnt = Array.make (2 * n_entities) 0 in
  let pc_record e dir gain =
    Mutex.lock pc_lock;
    pc_sum.((2 * e) + dir) <- pc_sum.((2 * e) + dir) +. gain;
    pc_cnt.((2 * e) + dir) <- pc_cnt.((2 * e) + dir) + 1;
    Mutex.unlock pc_lock
  in
  (* Snapshot of (avg down-gain, avg up-gain, min observation count). *)
  let pc_read e =
    Mutex.lock pc_lock;
    let sd = pc_sum.(2 * e) and cd = pc_cnt.(2 * e) in
    let su = pc_sum.((2 * e) + 1) and cu = pc_cnt.((2 * e) + 1) in
    Mutex.unlock pc_lock;
    ( (if cd > 0 then sd /. float_of_int cd else 0.0),
      (if cu > 0 then su /. float_of_int cu else 0.0),
      Int.min cd cu )
  in
  let pseudocost_branches = Atomic.make 0 in
  let probes_capped = Atomic.make 0 in
  (* ---- worker pool ---- *)
  (* Best bound first; ties go to the deeper node, then the smaller
     branch path. *)
  let cmp_nodes a b =
    let c =
      match sense with
      | Model.Minimize -> Float.compare a.bound b.bound
      | Maximize -> Float.compare b.bound a.bound
    in
    let c = if c <> 0 then c else compare b.depth a.depth in
    if c <> 0 then c else path_compare a.path b.path
  in
  let queues = Array.init n_workers (fun _ -> Work_queue.create ~cmp:cmp_nodes) in
  let worker_nodes = Array.make n_workers 0 in
  (* Per-domain, unsynchronized (each cell written by its own worker
     only, read after join): the lock-free buffer pattern the obs
     registry aggregates at merge time. *)
  let worker_steals = Array.make n_workers 0 in
  let spawn_child ?pc wid n dir bound basis overrides =
    Atomic.incr in_flight;
    Work_queue.push queues.(wid)
      { overrides; bound; depth = n.depth + 1; path = dir :: n.path; basis;
        pc }
  in
  let requeue wid n =
    Atomic.incr in_flight;
    Work_queue.push queues.(wid) n
  in
  (* GUB dichotomy over mode groups + pseudocost entity selection with
     reliability initialization: an entity whose pseudocosts rest on
     fewer than [reliability] (4) observations per direction is probed with
     two pivot-capped child LPs (the probes also seed its pseudocosts);
     reliable entities are scored by the product of their average
     objective degradations.  A group branches by splitting its member
     prefix at half the fractional mass — children zero one half each,
     so the one-mode equality row keeps the other half alive. *)
  let max_probes_per_node = 4 in
  let branch_pseudocost wid n (s : Simplex.solution) basis =
    let var_frac v = int_dist s.values.(v) in
    let frac_of e =
      match entities.(e) with
      | `Group vars ->
        Array.fold_left (fun acc v -> Float.max acc (var_frac v)) 0.0 vars
      | `Var v -> var_frac v
    in
    let candidates = ref [] in
    for e = n_entities - 1 downto 0 do
      if frac_of e > int_tol then candidates := e :: !candidates
    done;
    match !candidates with
    | [] ->
      (* Unreachable after [is_integral] fails: every integer variable
         is an entity or a group member, measured by the same
         [int_dist]. *)
      try_incumbent n.path s
    | cands ->
      (* Down/up child override sets; [None] marks a side already proven
         infeasible by existing bounds. *)
      let child_sets e =
        match entities.(e) with
        | `Var v ->
          let x = s.values.(v) in
          let lb, ub = effective_bounds wm n.overrides v in
          let fl = Float.floor x and ce = Float.ceil x in
          ( (if fl >= lb then Some ((v, lb, fl) :: n.overrides) else None),
            if ce <= ub then Some ((v, ce, ub) :: n.overrides) else None )
        | `Group vars ->
          let k = Array.length vars in
          (* Mass-carrying member span: both children must zero at least
             one member with positive value, otherwise the current LP
             point survives into a child and the dive never terminates. *)
          let first = ref (-1) and last = ref (-1) in
          let total = ref 0.0 in
          for i = 0 to k - 1 do
            let xi = s.values.(vars.(i)) in
            total := !total +. xi;
            if xi > int_tol then begin
              if !first < 0 then first := i;
              last := i
            end
          done;
          if !last <= !first then begin
            (* All mass on one member (its value fractional): the GUB
               split cannot separate, so dichotomize that member. *)
            let v = vars.(Int.max 0 !first) in
            let x = s.values.(v) in
            let lb, ub = effective_bounds wm n.overrides v in
            let fl = Float.floor x and ce = Float.ceil x in
            ( (if fl >= lb then Some ((v, lb, fl) :: n.overrides) else None),
              if ce <= ub then Some ((v, ce, ub) :: n.overrides) else None )
          end
          else begin
            (* Mass-balanced split clamped inside the span. *)
            let split = ref !first in
            let acc = ref 0.0 in
            (try
               for i = !first to !last - 1 do
                 acc := !acc +. s.values.(vars.(i));
                 if !acc >= 0.5 *. !total then begin
                   split := i;
                   raise Exit
                 end
               done;
               split := !last - 1
             with Exit -> ());
            let zero lo hi =
              let ov = ref (Some n.overrides) in
              for i = lo to hi do
                match !ov with
                | None -> ()
                | Some o ->
                  let lb, _ = effective_bounds wm o vars.(i) in
                  if lb > 0.0 then ov := None
                  else ov := Some ((vars.(i), 0.0, 0.0) :: o)
              done;
              !ov
            in
            (zero (!split + 1) (k - 1), zero 0 !split)
          end
      in
      let probes_left = ref max_probes_per_node in
      let best = ref None in
      List.iter
        (fun e ->
          let down, up = child_sets e in
          let d_avg, u_avg, cnt = pc_read e in
          let score =
            if cnt < reliability && !probes_left > 0 then begin
              decr probes_left;
              let probe dir = function
                | None -> 1e12
                | Some o -> (
                  match lp_solve ~iter_cap:100 ?basis ~wid o with
                  | Simplex.Optimal s', _ ->
                    let g = Float.abs (s'.objective -. s.objective) in
                    pc_record e dir g;
                    g
                  | Simplex.Infeasible, _ -> 1e12
                  | Simplex.Iter_limit _, _ ->
                    (* Scored like an infeasible side: from a warm basis
                       the dual simplex can need the whole cap on a side
                       it would prove infeasible from scratch. *)
                    Atomic.incr probes_capped;
                    1e12
                  | Simplex.Unbounded, _ -> 0.0)
              in
              let gd = probe 0 down in
              let gu = probe 1 up in
              Float.max gd 1e-6 *. Float.max gu 1e-6
            end
            else Float.max d_avg 1e-6 *. Float.max u_avg 1e-6
          in
          match !best with
          | Some (_, _, _, bs) when bs >= score -> ()
          | _ -> best := Some (e, down, up, score))
        cands;
      (match !best with
      | None -> ()
      | Some (e, down, up, _) ->
        Atomic.incr pseudocost_branches;
        (match down with
        | Some o -> spawn_child ~pc:(e, 0) wid n 0 s.objective basis o
        | None -> ());
        (match up with
        | Some o -> spawn_child ~pc:(e, 1) wid n 1 s.objective basis o
        | None -> ()))
  in
  let solve_node wid n =
    match solve_relaxation ?basis:n.basis ~pin:true ~wid n.overrides with
    | Simplex.Iter_limit _, _ ->
      (* Numerical trouble in this node's relaxation: stop cleanly with
         the incumbent rather than crash the search. *)
      request_stop Iter_limit;
      requeue wid n
    | Simplex.Infeasible, _ -> ()
    | Simplex.Unbounded, _ -> Atomic.set unbounded true
    | Simplex.Optimal s, basis ->
      (* Pseudocost feedback from the branch that created this node:
         how much the relaxation degraded relative to the parent. *)
      (match n.pc with
      | Some (e, dir) when Float.is_finite n.bound ->
        pc_record e dir (Float.abs (s.objective -. n.bound))
      | Some _ | None -> ());
      if gap_prune s.objective then ()
      else if is_integral s then try_incumbent n.path s
      else begin
        rounding_pass ?basis ~wid n.path n.overrides s;
        if n.depth = 0 && not (Float.is_finite (Atomic.get inc_obj)) then
          dive ~wid n.path n.overrides basis s;
        (* The rounding or the dive may have found an incumbent that
           fathoms this node. *)
        if not (gap_prune s.objective) then branch_pseudocost wid n s basis
      end
  in
  let process wid n =
    if stopping () then requeue wid n
    else if out_of_time () then begin
      request_stop Time_limit;
      requeue wid n
    end
    else if gap_prune n.bound then ( (* fathomed by a newer incumbent *) )
    else if Atomic.get nodes >= config.max_nodes then begin
      request_stop Node_limit;
      requeue wid n
    end
    else begin
      Atomic.incr nodes;
      worker_nodes.(wid) <- worker_nodes.(wid) + 1;
      (match config.fault with
      | Some f -> Fault.on_node f ~worker:wid
      | None -> ());
      (* The node's LP pins its factor for the rounding LP, probes and
         dive below, which start from its basis; dropped with the node. *)
      Fun.protect
        ~finally:(fun () -> Simplex.unpin workspaces.(wid))
        (fun () -> solve_node wid n)
    end
  in
  let steal_from wid =
    let rec go tries =
      if tries >= n_workers then None
      else
        let victim = (wid + tries) mod n_workers in
        match Work_queue.steal queues.(victim) with
        | Some n ->
          if tries > 0 then
            worker_steals.(wid) <- worker_steals.(wid) + 1;
          Some n
        | None -> go (tries + 1)
    in
    go 0
  in
  let worker wid () =
    let running = ref true in
    (* Idle backoff: a few spins for low-latency hand-off, then sleep
       with exponential growth so idle workers stop contending for the
       CPU on oversubscribed hosts (jobs > cores). *)
    let idle = ref 0 in
    while !running do
      if stopping () then running := false
      else
        match steal_from wid with
        | Some n ->
          idle := 0;
          (try process wid n
           with e ->
             (* Containment: only this node's subtree is lost.  The rest
                of the pool keeps searching, and the crash (plus the
                node's bound, which covers the lost subtree) degrades
                the final outcome instead of aborting the solve. *)
             let c =
               { worker = wid; depth = n.depth; path = n.path;
                 message = Printexc.to_string e }
             in
             record_crash c n.bound;
             if obs_on then begin
               match e with
               | Fault.Injected_crash { node; _ } ->
                 (* Injected: the firing-ordinal set is deterministic. *)
                 Tr.event tr ~slot:wid ~stability:Tr.Stable "fault.crash"
                   ~attrs:[ ("node", Tr.Int node) ]
               | _ ->
                 Tr.event tr ~slot:wid "solver.crash"
                   ~attrs:
                     [ ("depth", Tr.Int n.depth);
                       ("message", Tr.String c.message) ]
             end);
          Atomic.decr in_flight
        | None ->
          if Atomic.get in_flight = 0 then running := false
          else begin
            incr idle;
            if !idle <= 16 then Domain.cpu_relax ()
            else
              let backoff = Int.min (!idle - 16) 6 in
              Unix.sleepf (5e-5 *. float_of_int (1 lsl backoff))
          end
    done
  in
  (* Seed the incumbent from the caller's known-feasible fixing (runs
     sequentially, before the pool starts, so it is deterministic). *)
  if warm_start <> [] then begin
    let fixings = List.map (fun (v, x) -> (v, x, x)) warm_start in
    match solve_relaxation ~wid:0 fixings with
    | Simplex.Optimal s, _ when is_integral s ->
      try_incumbent [] s;
      (* Runs sequentially before the pool: stable across job counts. *)
      if obs_on then
        Tr.event tr ~stability:Tr.Stable "solver.warm_start"
          ~attrs:[ ("objective", Tr.Float s.objective) ]
    | (Simplex.Optimal _ | Simplex.Infeasible | Simplex.Unbounded
      | Simplex.Iter_limit _), _ -> ()
  end;
  let root_bound =
    match config.root_bound with
    | Some b ->
      (* A caller-proven dual bound (the continuous relaxation) tightens
         the root: with a seeding incumbent inside the gap the whole
         tree is fathomed before a single LP solve. *)
      if obs_on then Mc.incr c_root_bound ~slot:0;
      b
    | None -> ( match sense with Model.Minimize -> neg_infinity | _ -> infinity)
  in
  Atomic.set in_flight 1;
  Work_queue.push queues.(0)
    { overrides = []; bound = root_bound; depth = 0; path = []; basis = None;
      pc = None };
  let domains =
    Array.init (n_workers - 1) (fun i -> Domain.spawn (worker (i + 1)))
  in
  worker 0 ();
  Array.iter Domain.join domains;
  (* ---- finish: best proven bound and outcome ---- *)
  let crashes = List.rev_map fst !crash_log in
  let crashed_bounds = List.map snd !crash_log in
  let leftovers =
    Array.to_list queues |> List.concat_map Work_queue.drain
  in
  let inc_objective () =
    match !incumbent with
    | Some (s, _) -> s.Simplex.objective
    | None -> (
      match seed_solution with Some s -> s.Simplex.objective | None -> worst)
  in
  (* Open bounds: undrained nodes plus the bounds of crashed nodes, whose
     subtrees were lost unexplored. *)
  let bound =
    match List.map (fun n -> n.bound) leftovers @ crashed_bounds with
    | [] -> inc_objective ()
    | b :: bs ->
      List.fold_left (fun acc b -> if better b acc then b else acc) b bs
  in
  let stopped = Atomic.get stop in
  let cache1 = Lp_cache.stats cache in
  let stats =
    { nodes = Atomic.get nodes; lp_solves = Atomic.get lp_solves;
      lp_pivots = Atomic.get lp_pivots;
      cache_hits = cache1.Lp_cache.hits - cache0.Lp_cache.hits;
      cache_misses = cache1.Lp_cache.misses - cache0.Lp_cache.misses;
      cache_evictions = cache1.Lp_cache.evictions - cache0.Lp_cache.evictions;
      steals = Array.fold_left ( + ) 0 worker_steals;
      wall_seconds = Unix.gettimeofday () -. wall_start;
      cpu_seconds = Sys.time () -. cpu_start; workers = n_workers;
      worker_nodes }
  in
  (* Merge the per-domain buffers into the registry and close the span.
     This is the only point where observability touches shared state; the
     hot path above only bumped unsynchronized per-worker cells. *)
  if obs_on then begin
    for i = 0 to n_workers - 1 do
      Mc.add c_nodes ~slot:i worker_nodes.(i);
      Mc.add c_steals ~slot:i worker_steals.(i);
      Tr.event tr ~slot:i "solver.worker"
        ~attrs:
          [ ("worker", Tr.Int i);
            ("nodes", Tr.Int worker_nodes.(i));
            ("steals", Tr.Int worker_steals.(i)) ]
    done;
    Mc.add c_lp ~slot:0 stats.lp_solves;
    Mc.add c_pivots ~slot:0 stats.lp_pivots;
    Mc.incr c_solves ~slot:0;
    Mc.add c_cache_hits ~slot:0 stats.cache_hits;
    Mc.add c_cache_misses ~slot:0 stats.cache_misses;
    Mc.add c_cache_evictions ~slot:0 stats.cache_evictions;
    (match pre with
    | Some p ->
      Mc.add c_pre_rows ~slot:0 (Presolve.rows_removed p);
      Mc.add c_pre_cols ~slot:0 (Presolve.cols_removed p)
    | None -> ());
    Mc.add c_saved_warm ~slot:0 (Atomic.get a_saved);
    Mc.add c_dual_pivots ~slot:0 (Atomic.get a_dual);
    Mc.add c_bland_pivots ~slot:0 (Atomic.get a_bland);
    Mc.add c_flips ~slot:0 (Atomic.get a_flips);
    Mc.add c_flops ~slot:0 (Atomic.get a_flops);
    Mc.add c_lu_refacts ~slot:0 (Atomic.get a_lu_refacts);
    Mc.add c_lu_restores ~slot:0 (Atomic.get a_lu_restores);
    Mc.add c_residual_refactors ~slot:0 (Atomic.get a_residual_refactors);
    Dvs_obs.Metrics.Gauge.max g_residual_max
      (Array.fold_left Float.max 0.0 residual_max);
    Mc.add c_lu_fill ~slot:0 (Atomic.get a_lu_fill);
    Mc.add c_lu_eta ~slot:0 (Atomic.get a_lu_eta);
    Mc.add c_lu_fhits ~slot:0 (Atomic.get a_lu_fhits);
    Mc.add c_lu_bhits ~slot:0 (Atomic.get a_lu_bhits);
    Mc.add c_pc_branches ~slot:0 (Atomic.get pseudocost_branches);
    Mc.add c_probes_capped ~slot:0 (Atomic.get probes_capped);
    Dvs_obs.Metrics.Histogram.observe h_solve stats.wall_seconds
  end;
  let r =
    match (!incumbent, seed_solution) with
    | Some (s, _), _ ->
      let outcome =
        if crashes <> [] then Degraded { crashes; stopped }
        else
          match stopped with
          | Some reason when not (gap_prune bound) -> Feasible reason
          | Some _ | None -> Optimal
      in
      { outcome; solution = Some (lift s); bound; stats }
    | None, Some s when not (Atomic.get unbounded) ->
      (* The search never beat the caller's seed: return it verbatim (it
         lives in the original variable space, so no lift). *)
      let outcome =
        if crashes <> [] then Degraded { crashes; stopped }
        else
          match stopped with
          | Some reason when not (gap_prune bound) -> Feasible reason
          | Some _ | None -> Optimal
      in
      { outcome; solution = Some s; bound; stats }
    | None, _ ->
      if Atomic.get unbounded then
        { outcome = Unbounded; solution = None; bound; stats }
      else if crashes <> [] then
        { outcome = Degraded { crashes; stopped }; solution = None; bound;
          stats }
      else (
        match stopped with
        | Some reason ->
          { outcome = No_solution reason; solution = None; bound; stats }
        | None -> { outcome = Infeasible; solution = None; bound; stats })
  in
  if obs_on then
    Tr.finish tr solve_span
      ~attrs:
        [ ("outcome", Tr.String (Format.asprintf "%a" pp_outcome r.outcome));
          ("nodes", Tr.Int stats.nodes);
          ("bound", Tr.Float bound) ];
  r
