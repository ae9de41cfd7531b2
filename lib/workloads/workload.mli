(** The six MediaBench-analog benchmarks (DESIGN.md section 2 documents
    the substitution).  Each is a MiniC program whose compute/memory mix
    is shaped to land in the same region of the paper's parameter space
    (Table 7) as the original at ~1/50 dynamic scale:

    - [adpcm]: speech codec — long dependent arithmetic chains per
      sample, one streaming pass (compute-bound);
    - [epic]: image-pyramid filtering — two passes over an image, the
      vertical one strided (balanced, miss-heavy);
    - [gsm]: LPC autocorrelation over small windows — cache-hit-dominated
      with heavy multiply-accumulate (hit-heavy, tiny miss time);
    - [mpeg]: motion-compensated decode — scattered reference fetches
      over an L2-exceeding frame plus IDCT-like compute; four canned
      inputs in two encoding categories (with and without B-frame-style
      interpolation), for the Section 4.3/6.4 multi-input experiments;
    - [ghostscript]: short, branchy span rasterization (tiny run, the
      paper's smallest benchmark);
    - [mpg123]: windowed subband synthesis (hybrid).

    An extra seventh benchmark, [jpeg] (block transform + quantization),
    is available to the tools and tests but excluded from the
    paper-table reproductions. *)

type t = {
  name : string;
  description : string;
  source : string;  (** MiniC text *)
  inputs : string list;  (** named input variants; first is default *)
  fill : Dvs_lang.Lower.layout -> input:string -> int array;
      (** builds the initial data segment for an input variant *)
}

val all : t list

val find : string -> t
(** Raises [Not_found]. *)

val load : t -> input:string -> Dvs_ir.Cfg.t * Dvs_lang.Lower.layout * int array
(** Compile (memoized per workload) and build the input memory. *)

val default_input : t -> string

val eval_config :
  ?mode_table:Dvs_power.Mode.table ->
  ?regulator:Dvs_power.Switch_cost.regulator ->
  ?dram_latency:float ->
  unit -> Dvs_machine.Config.t
(** The evaluation machine: cache capacities scaled down (L1 8 KB,
    L2 64 KB) in proportion to the workloads' scaled working sets, so the
    miss behavior of the full-size originals is preserved; everything
    else as {!Dvs_machine.Config.default}. *)

val machine : ?levels:int -> capacitance:float -> unit -> Dvs_machine.Config.t
(** {!eval_config} with {!Dvs_power.Mode.xscale3}, or [levels] evenly
    spaced levels over its range ({!Dvs_power.Mode.xscale_levels}), and
    a default-efficiency regulator of [capacitance] farads. *)
