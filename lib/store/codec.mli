(** JSON codecs for the stored artifact classes, plus the fingerprint
    helpers {!Exec} composes cache keys from.

    Floats are rendered as hexadecimal float strings ([%h]) so every
    value — including non-finite bounds — round-trips bit-exactly
    (the plain JSON [Float] printer maps non-finite values to [null]).
    Decoders are total: any shape mismatch is an [Error], never an
    exception, so a damaged payload downgrades to a store miss.

    {b Image table.}  A run's final memory image is most of an
    artifact's bytes and repeats across runs (every mode run of a
    profile, every verified point of a sweep).  Each top-level encoding
    ({!profile_to_json}, {!essence_to_json}, {!sweep_to_json}) therefore
    carries an ["images"] member listing every distinct image once, and
    each run's ["memory"] member is an index into it.  A 3-mode profile
    carries one image, not three; a 7-point sweep one, not seven.

    Each image is one JSON string, {!image_to_string}: its words in
    decimal, joined by single commas, with no per-word JSON value.
    Decoding reads each string in one pass into an array of exactly its
    length ({!image_of_string}).  The first run that refers to an image
    gets that array and every later run its own copy, so runs never
    alias one another and an entry allocates one image fewer than it
    has runs.  A missing ["images"] member, an image that is not such a
    string, or an index out of range is an [Error]. *)

(** {2 Memory images} *)

val image_to_string : int array -> string
(** The image's words in decimal ([string_of_int]), joined by single
    commas: [[|1; -20; 0|]] is ["1,-20,0"], [[||]] is [""].  Rendered
    into one buffer, with no string per word. *)

val image_of_string : string -> (int array, string) result
(** The inverse of {!image_to_string}, allocating only the result.  It
    accepts exactly what the encoder writes: the empty string, or words
    joined by single commas, a word being an optional ['-'] and decimal
    digits with no leading zero whose value fits an [int].  Anything
    else is an [Error], never an exception: an empty word (["1,,2"],
    [",1"], ["1,"]), a lone ["-"], a ['+'], ["-0"], a leading zero, any
    other byte (["1a"]), or a value past [max_int] or [min_int]. *)

(** {2 Simulator artifacts} *)

val profile_to_json : Dvs_profile.Profile.t -> Dvs_obs.Json.t
(** The measured data only — [cfg] and [config] are part of the cache
    key, so {!profile_of_json} takes them back from the caller. *)

val profile_of_json :
  cfg:Dvs_ir.Cfg.t ->
  config:Dvs_machine.Config.t ->
  Dvs_obs.Json.t ->
  (Dvs_profile.Profile.t, string) result

val profile_fingerprint : Dvs_profile.Profile.t -> string
(** Content hash of the measured data (bit-exact on floats): the
    identity of a profile inside solve/sweep keys, independent of how
    the caller names its workload.  It is
    [Key.hash_hex (Json.to_string (profile_to_json p))], which is
    exactly a [sim] entry's checksum, so a profile carries the value
    ({!Dvs_profile.Profile.fingerprint}) instead of re-rendering:
    - from a [sim] hit, the entry's verified checksum;
    - from a [sim] miss, the checksum [Store.put] computed over the
      bytes it wrote;
    - any other profile renders once, on first use, and keeps the
      value.
    A copy [{ p with ... }] that changes any measured field computes
    its own value; one that changes only [cfg], [config] or the slots
    keeps [p]'s, which is the same value. *)

(** {2 Solve artifacts} *)

type solve_essence = {
  e_outcome : Dvs_milp.Solver.outcome;
  e_solution : Dvs_lp.Simplex.solution option;
  e_bound : float;
  e_stats : Dvs_milp.Solver.stats;
  e_predicted_energy : float option;
  e_schedule : Dvs_core.Schedule.t option;
  e_verification : Dvs_core.Verify.report option;
  e_solve_seconds : float;
  e_rung : Dvs_core.Pipeline.rung option;
  e_descents : Dvs_core.Pipeline.descent list;
  e_continuous_bound : float option;
}
(** Everything a {!Dvs_core.Pipeline.result} carries except the
    formulation and categories, which are cheap to rebuild and are
    pinned by the cache key. *)

val essence_of_result : Dvs_core.Pipeline.result -> solve_essence

val result_of_essence :
  categories:Dvs_core.Formulation.category list ->
  formulation:Dvs_core.Formulation.t ->
  independent_edges:int ->
  solve_essence ->
  Dvs_core.Pipeline.result

val essence_to_json : solve_essence -> Dvs_obs.Json.t

val essence_of_json : Dvs_obs.Json.t -> (solve_essence, string) result

type sweep_essence = {
  se_points : solve_essence array;
  se_stats : Dvs_milp.Sweep.stats;
}

val sweep_to_json : sweep_essence -> Dvs_obs.Json.t

val sweep_of_json : Dvs_obs.Json.t -> (sweep_essence, string) result

(** {2 Key components} *)

val memory_fingerprint : int array -> string
(** Content hash of a memory image (the workload input data). *)

val regulator_component : Dvs_power.Switch_cost.regulator -> Key.component

val machine_components :
  prefix:string -> Dvs_machine.Config.t -> (string * Key.component) list
(** Cache geometry, DRAM latency, mode table, regulator, energy
    coefficient — every machine parameter the simulator reads. *)

val solver_components :
  Dvs_milp.Solver.Config.t -> (string * Key.component) list
(** The solver parameters that shape the result: jobs, budgets, cache
    depth and presolve.  Operational fields
    (log, cache, obs, fault) are excluded — {!Exec} refuses to cache
    fault-injected solves outright. *)

val pipeline_components :
  Dvs_core.Pipeline.Config.t -> (string * Key.component) list
(** Filter, cold verification, continuous bound and resilience
    settings (the nested solver config is {e not} included — compose
    with {!solver_components}). *)
