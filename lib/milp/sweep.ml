(* Parametric deadline sweep: one model, many deadline-row RHS values.
   See sweep.mli for the design. *)

open Dvs_lp

type point = {
  deadline : float;
  result : Solver.result;
  warm_started : bool;
  pruned_by_bound : bool;
}

type stats = {
  instances_warm_started : int;
  points_pruned_by_bound : int;
}

type t = {
  points : point array;
  stats : stats;
}

let run ?config ?per_point ?point_bound ?point_seed ~model ~deadline_row
    ~deadlines () =
  let config = Option.value config ~default:Solver.Config.default in
  let np = Array.length deadlines in
  if np = 0 then invalid_arg "Sweep.run: empty deadlines";
  Array.iter
    (fun d ->
      if not (Float.is_finite d) then
        invalid_arg "Sweep.run: non-finite deadline")
    deadlines;
  if deadline_row < 0 || deadline_row >= Model.num_constraints model then
    invalid_arg "Sweep.run: deadline_row out of range";
  let drow = List.nth (Model.constraints model) deadline_row in
  (match drow.Model.cmp with
  | Model.Le -> ()
  | Model.Ge | Model.Eq ->
      invalid_arg "Sweep.run: deadline row must be a Le constraint");
  (* Tightest deadline first: its optimum stays feasible at every looser
     point and lifts forward as a warm incumbent.  Ties keep input order. *)
  let order = Array.init np Fun.id in
  Array.sort
    (fun a b ->
      match Float.compare deadlines.(a) deadlines.(b) with
      | 0 -> Int.compare a b
      | c -> c)
    order;
  let sense = fst (Model.objective model) in
  (* The lift: the solution of the last completed point that has one,
     i.e. the loosest completed tighter point. *)
  let lifted : Simplex.solution option ref = ref None in
  let point_config idx d lift =
    let cfg =
      match per_point with None -> config | Some f -> f idx d config
    in
    let seed = match point_seed with None -> None | Some f -> f idx d in
    match lift with
    | None -> (
        (* Cold point: a caller-supplied rounded seed beats the config's
           generic warm fixing (typically all-fastest) as the incumbent
           materialized before the search starts. *)
        match seed with
        | Some (fixings, _) ->
            (Solver.Config.with_warm_start fixings cfg, false)
        | None -> (cfg, false))
    | Some (sol : Simplex.solution) ->
        (* Seed the lifted incumbent as a solution object — no LP solve,
           and the seed survives bit-exactly unless the search strictly
           beats it, so pruned and unpruned sweeps agree bit-for-bit.

           The config's warm fixing is dropped: the lift is the optimum
           of a tighter point, never worse than a generic fixing, so
           materializing one would spend an LP solve on an incumbent that
           cannot displace the seed.  A caller seed is kept only when its
           known objective strictly beats the lift beyond the optimality
           slack — in particular never at a point the pre-pruning
           certificate could fire on, which keeps pruned and unpruned
           sweeps bit-identical. *)
        let cfg = Solver.Config.with_warm_solution sol cfg in
        let obj = sol.Simplex.objective in
        let slack =
          Solver.gap_rel *. Float.max 1.0 (Float.abs obj)
        in
        let fixings =
          match (seed, sense) with
          | Some (fx, sobj), Model.Minimize when sobj < obj -. slack -> fx
          | Some (fx, sobj), Model.Maximize when sobj > obj +. slack -> fx
          | _ -> []
        in
        (Solver.Config.with_warm_start fixings cfg, true)
  in
  (* A point the bound does not prune: the model with its deadline row
     set, one solve under the point's lift, seed and fixings. *)
  let solve_at idx d lift =
    let mp = Model.copy model in
    Model.set_constraint_rhs mp deadline_row d;
    let cfg, warm_started = point_config idx d lift in
    { deadline = d; result = Solver.solve ~config:cfg mp; warm_started;
      pruned_by_bound = false }
  in
  let solve_point idx =
    let d = deadlines.(idx) in
    let lift = !lifted in
    (* Pre-prune: a caller-proven dual bound that already certifies the
       lifted incumbent optimal within the gap makes the whole point a
       no-op — no LP solves, no nodes.  The returned solution is the
       lifted object itself, bit-identical to what a full solve would
       keep: the search could only re-find within-gap solutions, which
       never displace a seeding incumbent. *)
    let prune_cert =
      match (lift, point_bound) with
      | Some (sol : Simplex.solution), Some f -> (
          match f idx d with
          | Some cb ->
              let obj = sol.Simplex.objective in
              let slack =
                Solver.gap_rel *. Float.max 1.0 (Float.abs obj)
              in
              let certifies =
                match sense with
                | Model.Minimize -> cb >= obj -. slack
                | Model.Maximize -> cb <= obj +. slack
              in
              if certifies then Some cb else None
          | None -> None)
      | _ -> None
    in
    match (prune_cert, lift) with
    | Some cb, Some sol ->
        let result =
          { Solver.outcome = Solver.Optimal; solution = Some sol; bound = cb;
            stats =
              { Solver.nodes = 0; lp_solves = 0; lp_pivots = 0; cache_hits = 0;
                cache_misses = 0; cache_evictions = 0; steals = 0;
                wall_seconds = 0.0; cpu_seconds = 0.0; workers = 0;
                worker_nodes = [||] } }
        in
        { deadline = d; result; warm_started = true; pruned_by_bound = true }
    | _ -> solve_at idx d lift
  in
  (* A failure in one point's hooks or solve must not sink the others:
     fall back to a plain cold solve of that point, no lift. *)
  let safe_point idx =
    try solve_point idx with _ -> solve_at idx deadlines.(idx) None
  in
  let results = Array.make np None in
  Array.iter
    (fun idx ->
      let pt = safe_point idx in
      (match (pt.result.Solver.outcome, pt.result.Solver.solution) with
      | (Solver.Optimal | Solver.Feasible _ | Solver.Degraded _), Some s ->
          lifted := Some s
      | _ -> ());
      results.(idx) <- Some pt)
    order;
  let points = Array.map Option.get results in
  let count f = Array.fold_left (fun a p -> a + f p) 0 points in
  let stats =
    {
      instances_warm_started =
        count (fun p -> Bool.to_int p.warm_started);
      points_pruned_by_bound =
        count (fun p -> Bool.to_int p.pruned_by_bound);
    }
  in
  let mx = Dvs_obs.metrics config.Solver.Config.obs in
  let module Mc = Dvs_obs.Metrics.Counter in
  let c name = Dvs_obs.Metrics.counter mx ~stability:Volatile name in
  Mc.add (c "sweep.points") ~slot:0 np;
  Mc.add (c "sweep.instances_warm_started") ~slot:0 stats.instances_warm_started;
  Mc.add (c "sweep.points_pruned_by_bound") ~slot:0 stats.points_pruned_by_bound;
  { points; stats }
