(* Parametric deadline sweep: one compiled model, many RHS values.
   See sweep.mli for the design. *)

open Dvs_lp

type point = {
  deadline : float;
  result : Solver.result;
  cuts_applied : int;
  pool_hits : int;
  warm_started : bool;
  root_pivots : int;
  pruned_by_bound : bool;
}

type stats = {
  instances_warm_started : int;
  cuts_separated : int;
  cuts_applied : int;
  cut_pool_hits : int;
  pool_size : int;
  root_pivots : int;
  points_pruned_by_bound : int;
}

type t = {
  points : point array;
  stats : stats;
}

(* Gomory cuts kept per separation round. *)
let max_cuts_per_round = 16

let run ?config ?(cut_rounds = 3) ?pool ?per_point ?point_bound ?point_seed
    ~model ~deadline_row ~deadlines () =
  let config = Option.value config ~default:Solver.Config.default in
  if cut_rounds < 0 then invalid_arg "Sweep.run: cut_rounds < 0";
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
  (* Separator inputs read once off the deadline row: its binary
     positive-weight terms for cover cuts, and the SOS1 groups paired
     with their row weights for GUB covers. *)
  let dexpr = drow.Model.expr in
  let cover_row =
    Expr.coeffs dexpr
    |> List.filter_map (fun (v, w) ->
           if w > 0.0 && Model.is_integer model v then
             let lo, hi = Model.bounds model v in
             if lo >= -1e-9 && hi <= 1.0 +. 1e-9 then Some (w, v) else None
           else None)
  in
  let gub_groups =
    config.Solver.Config.sos1
    |> List.filter_map (fun g ->
           let vars = Array.of_list g in
           if Array.length vars < 2 then None
           else
             let ws = Array.map (fun v -> Expr.coeff dexpr v) vars in
             if
               Array.for_all (fun w -> w >= 0.0) ws
               && Array.exists (fun w -> w > 0.0) ws
             then Some (vars, ws)
             else None)
  in
  let pool = match pool with Some p -> p | None -> Cuts.Pool.create () in
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
  (* One compiled root model and workspace for every point; [chain]
     carries the previous point's root basis into the next root LP. *)
  let c0 = Compiled.of_model model in
  let ws = Simplex.workspace () in
  let chain = ref None in
  (* The lift: the solution of the last completed point that has one,
     i.e. the loosest completed tighter point. *)
  let lifted : Simplex.solution option ref = ref None in
  let cuts_separated = ref 0 and root_flops = ref 0 in
  let root_residual_max = ref 0.0 and root_residual_refactors = ref 0 in
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
  (* The root cutting loop for one point: solve the LP relaxation of the
     cut-augmented point model, separate violated cuts off its tableau,
     append, reprice dual-simplex-style via extend_basis, repeat.  Its LP
     and tableau work goes to [root_flops], for the [lp.flops] counter. *)
  let cut_loop mp d pooled =
    let root_pivots = ref 0 in
    let charge (ls : Simplex.stats) =
      root_pivots := !root_pivots + ls.Simplex.pivots;
      root_flops := !root_flops + ls.Simplex.flops;
      root_residual_max := Float.max !root_residual_max ls.Simplex.residual_max;
      root_residual_refactors :=
        !root_residual_refactors + ls.Simplex.residual_refactors
    in
    let applied_rev = ref (List.rev pooled) in
    let n_pooled = List.length pooled in
    (* Cut-free chained LP first: same compiled form as the previous
       point modulo set_rhs, so the chained basis makes this a dual
       reoptimization. *)
    Compiled.set_rhs c0 deadline_row d;
    let st0, b0, lstats0 =
      Simplex.solve_compiled ?basis:!chain ~ws c0
    in
    charge lstats0;
    (match b0 with Some _ -> chain := b0 | None -> ());
    (match st0 with
    | Simplex.Optimal _ ->
        (* Bring the pooled cuts into the relaxation, then iterate. *)
        let state =
          if n_pooled = 0 then
            match b0 with
            | Some b -> Some (c0, b, st0)
            | None -> None
          else
            let cp = Compiled.of_model mp in
            let basis =
              Option.map (fun b -> Simplex.extend_basis b ~rows:n_pooled) b0
            in
            let st, bc, ls =
              Simplex.solve_compiled ?basis ~ws cp
            in
            charge ls;
            match bc with Some b -> Some (cp, b, st) | None -> None
        in
        let row_valid_le cp =
          let m = cp.Compiled.m in
          let rv = Array.make m infinity in
          rv.(deadline_row) <- d;
          let base = Model.num_constraints model in
          List.iteri
            (fun i c -> rv.(base + i) <- c.Cuts.valid_le)
            (List.rev !applied_rev);
          rv
        in
        let rec round r state =
          match state with
          | None -> ()
          | Some (cp, bc, Simplex.Optimal sol) when r < cut_rounds ->
              let x = sol.Simplex.values in
              let gom =
                match Simplex.tableau cp bc with
                | None -> []
                | Some tab ->
                    let cuts =
                      Cuts.gomory ~compiled:cp ~tableau:tab ~x ~deadline:d
                        ~row_valid_le:(row_valid_le cp) ~bounds_pristine:true
                        ~max_cuts:max_cuts_per_round
                    in
                    (* After the separator: its row reads are tableau
                       work too. *)
                    root_flops := !root_flops + Simplex.tableau_flops tab;
                    cuts
              in
              let cov = Cuts.covers ~row:cover_row ~deadline:d ~x in
              let gub = Cuts.gub_covers ~groups:gub_groups ~deadline:d ~x in
              let fresh = gom @ cov @ gub in
              if fresh = [] then ()
              else begin
                cuts_separated := !cuts_separated + List.length fresh;
                List.iter (fun c -> ignore (Cuts.Pool.add pool c)) fresh;
                List.iter (Cuts.add_to_model mp) fresh;
                applied_rev := List.rev_append fresh !applied_rev;
                let cp' = Compiled.of_model mp in
                let basis =
                  Simplex.extend_basis bc ~rows:(List.length fresh)
                in
                let st, bc', ls =
                  Simplex.solve_compiled ~basis ~ws cp'
                in
                charge ls;
                match bc' with
                | Some b -> round (r + 1) (Some (cp', b, st))
                | None -> ()
              end
          | Some _ -> ()
        in
        round 0 state
    | _ -> ());
    (List.length !applied_rev, !root_pivots)
  in
  let solve_point idx =
    let d = deadlines.(idx) in
    let lift = !lifted in
    (* Pre-prune: a caller-proven dual bound that already certifies the
       lifted incumbent optimal within the gap makes the whole point a
       no-op — no cuts, no LP solves, no nodes.  The returned solution is
       the lifted object itself, bit-identical to what a full solve would
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
        { deadline = d; result; cuts_applied = 0; pool_hits = 0;
          warm_started = true; root_pivots = 0; pruned_by_bound = true }
    | _ ->
        let mp = Model.copy model in
        Model.set_constraint_rhs mp deadline_row d;
        let pooled = Cuts.Pool.applicable pool ~deadline:d in
        List.iter (Cuts.add_to_model mp) pooled;
        let hits =
          List.length (List.filter (fun c -> c.Cuts.born <> d) pooled)
        in
        let n_applied, root_pivots =
          if cut_rounds = 0 then (List.length pooled, 0)
          else
            try cut_loop mp d pooled
            with _ -> (List.length pooled, 0)
        in
        let cfg, warm_started = point_config idx d lift in
        let result = Solver.solve ~config:cfg mp in
        { deadline = d; result; cuts_applied = n_applied; pool_hits = hits;
          warm_started; root_pivots; pruned_by_bound = false }
  in
  (* A sweep-level failure on one point must not sink the others: fall
     back to a plain cold solve of that point, no cuts, no lift. *)
  let safe_point idx =
    try solve_point idx
    with _ ->
      let d = deadlines.(idx) in
      let mp = Model.copy model in
      Model.set_constraint_rhs mp deadline_row d;
      let cfg, _ = point_config idx d None in
      let result = Solver.solve ~config:cfg mp in
      { deadline = d; result; cuts_applied = 0; pool_hits = 0;
        warm_started = false; root_pivots = 0; pruned_by_bound = false }
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
      cuts_separated = !cuts_separated;
      cuts_applied = count (fun p -> p.cuts_applied);
      cut_pool_hits = count (fun p -> p.pool_hits);
      pool_size = Cuts.Pool.size pool;
      root_pivots = count (fun (p : point) -> p.root_pivots);
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
  Mc.add (c "cuts.separated") ~slot:0 stats.cuts_separated;
  Mc.add (c "cuts.applied") ~slot:0 stats.cuts_applied;
  Mc.add (c "cuts.pool_hits") ~slot:0 stats.cut_pool_hits;
  (* The root loops' LP solves and tableaux, on top of what each point's
     own solve charged. *)
  Mc.add (c "lp.flops") ~slot:0 !root_flops;
  Mc.add (c "lu.residual_refactors") ~slot:0 !root_residual_refactors;
  Dvs_obs.Metrics.Gauge.max
    (Dvs_obs.Metrics.gauge mx ~stability:Volatile "lu.residual_max")
    !root_residual_max;
  { points; stats }
