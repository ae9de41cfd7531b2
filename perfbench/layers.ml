(* Per-layer readings.  Counts come from the program's own [Dvs_obs]
   counters; busy times from the program's existing spans
   ([solver.solve], [pipeline.sweep], [pipeline.optimize],
   [pipeline.verify], [sim.run]) and from the benchmark's own spans
   around calls into each layer ({!Stats.time}).

   Program spans are summed by duration only: the trace clamps each
   slot's timestamps monotonic, which moves the recorded start of an
   enclosing span, so their intervals cannot be intersected.  Nesting
   is structural instead:
   - [solver.solve] sits inside [pipeline.sweep] or [pipeline.optimize];
   - [pipeline.verify] sits inside [pipeline.optimize] and holds one
     [sim.run] check;
   - a sweep's own checks are [sim.run] spans outside both.
   The checks inside [pipeline.verify] are taken as
   [min (sum sim.run) (sum pipeline.verify)], which is exact when every
   check is inside one (the service path) or none is (a sweep with no
   fallback point). *)

module M = Dvs_obs.Metrics
module Tr = Dvs_obs.Trace

(* A fresh traced bundle: big enough that a whole mpeg grid (about 120k
   simulator events) is never truncated. *)
let traced_obs () = Dvs_obs.create ~trace_capacity:2_000_000 ()

let counter obs name =
  float_of_int
    (M.Counter.value (M.counter (Dvs_obs.metrics obs) ~stability:M.Volatile name))

let histogram obs name =
  let h = M.histogram (Dvs_obs.metrics obs) ~stability:M.Volatile name in
  (float_of_int (M.Histogram.count h), M.Histogram.sum h)

type spans = {
  solve : float;
  sweep : float;
  optimize : float;
  verify : float;
  sim : float;
  sim_runs : int;
  dropped : int;
}

let spans obs =
  let tr = Dvs_obs.trace obs in
  let z =
    { solve = 0.0; sweep = 0.0; optimize = 0.0; verify = 0.0; sim = 0.0;
      sim_runs = 0; dropped = Tr.dropped tr }
  in
  List.fold_left
    (fun s (e : Tr.entry) ->
      match e.Tr.dur with
      | None -> s
      | Some d -> (
        match e.Tr.name with
        | "solver.solve" -> { s with solve = s.solve +. d }
        | "pipeline.sweep" -> { s with sweep = s.sweep +. d }
        | "pipeline.optimize" -> { s with optimize = s.optimize +. d }
        | "pipeline.verify" -> { s with verify = s.verify +. d }
        | "sim.run" -> { s with sim = s.sim +. d; sim_runs = s.sim_runs + 1 }
        | _ -> s))
    z (Tr.entries tr)

(* Busy seconds of the three program layers (see the header). *)
let milp_s s = s.solve

let verify_s s = s.verify +. (s.sim -. Float.min s.sim s.verify)

let dvs_s s = s.sweep +. s.optimize -. s.solve -. s.verify

(* ---- accumulation ---------------------------------------------------- *)

(* Named sums over the traced jobs of one run; {!get} reads 0 for a name
   nothing added to. *)
type acc = (string, float) Hashtbl.t

let acc () : acc = Hashtbl.create 64

let add (a : acc) name v =
  Hashtbl.replace a name
    (v +. Option.value (Hashtbl.find_opt a name) ~default:0.0)

let get (a : acc) name = Option.value (Hashtbl.find_opt a name) ~default:0.0

(* Size of the model [Pipeline.prepare] built. *)
let add_model a (prep : Dvs_core.Pipeline.prepared) =
  let m = prep.Dvs_core.Pipeline.prep_formulation.Dvs_core.Formulation.model in
  let nnz =
    List.fold_left
      (fun acc (c : Dvs_lp.Model.constr) ->
        acc + List.length (Dvs_lp.Expr.coeffs c.Dvs_lp.Model.expr))
      0 (Dvs_lp.Model.constraints m)
  in
  add a "dvs.independent_edges"
    (float_of_int prep.Dvs_core.Pipeline.prep_independent_edges);
  add a "dvs.model_rows" (float_of_int (Dvs_lp.Model.num_constraints m));
  add a "dvs.model_cols" (float_of_int (Dvs_lp.Model.num_vars m));
  add a "dvs.model_nnz" (float_of_int nnz)

(* Everything one traced job leaves in its private bundle. *)
let add_job_counters a obs =
  let s = spans obs in
  add a "milp.solve_s" (milp_s s);
  add a "verify.check_s" (verify_s s);
  add a "dvs.self_s" (dvs_s s);
  add a "verify.replays" (float_of_int s.sim_runs);
  add a "trace.dropped" (float_of_int s.dropped);
  List.iter
    (fun (key, name) -> add a key (counter obs name))
    [ ("milp.nodes", "solver.nodes"); ("milp.lp_solves", "solver.lp_solves");
      ("lp.pivots", "solver.lp_pivots"); ("lp.flops", "lp.flops");
      ("lu.refactorizations", "lu.refactorizations");
      ("lu.eta_nnz", "lu.eta_nnz"); ("milp.cuts_applied", "cuts.applied");
      ("lp_cache.hits", "lp_cache.hits"); ("lp_cache.misses", "lp_cache.misses");
      ("sweep.points", "sweep.points");
      ("sweep.pruned", "sweep.points_pruned_by_bound");
      ("sim.summary_hits", "sim.summary_hits");
      ("sim.summary_misses", "sim.summary_misses");
      ("verify.blocks_replayed", "sim.blocks_replayed");
      ("store.puts", "store.puts");
      ("store.hits", "store.sim_hits"); ("store.hits", "store.sweep_hits");
      ("store.misses", "store.sim_misses");
      ("store.misses", "store.sweep_misses") ];
  s

let add_gc a ~(before : Stats.gc) ~(after : Stats.gc) =
  add a "gc.minor_collections"
    (float_of_int (after.Stats.minor_collections - before.Stats.minor_collections));
  add a "gc.major_collections"
    (float_of_int (after.Stats.major_collections - before.Stats.major_collections));
  add a "gc.promoted_mw"
    ((after.Stats.promoted_words -. before.Stats.promoted_words) /. 1e6)

(* ---- the reported set -------------------------------------------------- *)

(* Every per-layer metric, in report order, with its unit.  With
   [host.calib_ms], which [Perfbench] appends, they are the [per_layer]
   list of BENCHMARK.json. *)
let metrics =
  [ ("lang.compile_ms", "ms"); ("ir.instr_count", "count");
    ("profile.collect_s", "s"); ("machine.sim_runs", "count");
    ("machine.dyn_instrs", "count"); ("machine.sim_minstr_per_s", "Minstr/s");
    ("verify.record_s", "s"); ("verify.check_s", "s");
    ("verify.replays", "count"); ("verify.summary_hit_ratio", "ratio");
    ("verify.blocks_replayed", "count"); ("dvs.prepare_s", "s");
    ("dvs.self_s", "s"); ("dvs.independent_edges", "count");
    ("dvs.model_rows", "count"); ("dvs.model_cols", "count");
    ("dvs.model_nnz", "count"); ("relaxation.bound_s", "s");
    ("sweep.pruned_ratio", "ratio"); ("milp.solve_s", "s");
    ("milp.nodes", "count"); ("milp.lp_solves", "count");
    ("milp.nodes_per_s", "1/s"); ("milp.cuts_applied", "count");
    ("milp.lp_cache_hit_ratio", "ratio"); ("lp.pivots", "count");
    ("lp.pivots_per_solve", "count"); ("lp.flops", "count");
    ("lu.refactorizations", "count"); ("lu.eta_nnz", "count");
    ("exec.self_s", "s"); ("store.replay_s", "s"); ("store.puts", "count");
    ("store.hit_ratio", "ratio"); ("store.bytes", "bytes");
    ("service.queue_wait_ms", "ms"); ("service.server_ms", "ms");
    ("service.transport_ms", "ms"); ("service.batched_ratio", "ratio");
    ("service.cache_replies", "count"); ("service.shed", "count");
    ("gc.minor_collections", "count"); ("gc.major_collections", "count");
    ("gc.promoted_mw", "Mwords"); ("other.self_s", "s");
    ("trace.overhead_ms", "ms"); ("trace.dropped", "count") ]

(* Bases printed beside each ratio, as (ratio, numerator, denominator). *)
let ratio_bases =
  [ ("verify.summary_hit_ratio", "sim.summary_hits",
     "sim.summary_hits + sim.summary_misses");
    ("sweep.pruned_ratio", "sweep.points_pruned_by_bound", "sweep.points");
    ("milp.lp_cache_hit_ratio", "lp_cache.hits", "lp_cache.hits + misses");
    ("milp.nodes_per_s", "milp.nodes", "milp.solve_s");
    ("lp.pivots_per_solve", "lp.pivots", "milp.lp_solves");
    ("store.hit_ratio", "store hits", "store hits + misses");
    ("service.batched_ratio", "requests in a batch of >= 2", "requests");
    ("machine.sim_minstr_per_s", "machine.dyn_instrs", "profile.collect_s") ]

(* Turn the sums of [n] traced jobs into the reported per-job values.
   Per-call means ([lang.compile_ms], [profile.collect_s],
   [verify.record_s]) and ratios are filled in by the caller's
   [extra]. *)
let per_job a ~jobs ~extra =
  let n = float_of_int (Int.max 1 jobs) in
  let ratios =
    [ ("verify.summary_hit_ratio",
       Stats.ratio (get a "sim.summary_hits")
         (get a "sim.summary_hits" +. get a "sim.summary_misses"));
      ("sweep.pruned_ratio", Stats.ratio (get a "sweep.pruned") (get a "sweep.points"));
      ("milp.lp_cache_hit_ratio",
       Stats.ratio (get a "lp_cache.hits")
         (get a "lp_cache.hits" +. get a "lp_cache.misses"));
      ("milp.nodes_per_s", Stats.ratio (get a "milp.nodes") (get a "milp.solve_s"));
      ("lp.pivots_per_solve",
       Stats.ratio (get a "lp.pivots") (get a "milp.lp_solves"));
      ("store.hit_ratio",
       Stats.ratio (get a "store.hits") (get a "store.hits" +. get a "store.misses")) ]
  in
  List.map
    (fun (name, unit_) ->
      let v =
        match List.assoc_opt name extra with
        | Some v -> v
        | None -> (
          match List.assoc_opt name ratios with
          | Some v -> v
          | None -> get a name /. n)
      in
      (name, v, unit_))
    metrics
