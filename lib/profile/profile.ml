open Dvs_ir
open Dvs_machine

type path = {
  pred : Cfg.label option;
  node : Cfg.label;
  succ : Cfg.label;
}

type recording = {
  rec_config : Config.t;
  rec_cfg : Cfg.t;
  rec_memory : int array;
  rec_summary : Summary.t;
}

type t = {
  cfg : Cfg.t;
  config : Config.t;
  exec_count : int array;
  edge_count : int array;
  entry_count : int;
  paths : (path * int) list;
  total_time : float array array;
  total_energy : float array array;
  runs : Cpu.run_stats array;
  recording : recording option Atomic.t;
  mutable fingerprint : fingerprint option;
}

(* A fingerprint is valid for the content it was computed from, which it
   keeps by identity (a copy of the record with no fingerprint, so
   nothing is cyclic): a [{ p with exec_count = ... }] copy inherits the
   memo but fails [same_content]. *)
and fingerprint = { value : string; of_content : t }

let no_recording () = Atomic.make None

let recording p = Atomic.get p.recording

let take_recording p = Atomic.exchange p.recording None

let same_content a b =
  a.exec_count == b.exec_count
  && a.edge_count == b.edge_count
  && a.entry_count = b.entry_count
  && a.paths == b.paths
  && a.total_time == b.total_time
  && a.total_energy == b.total_energy
  && a.runs == b.runs

let fingerprint p =
  match p.fingerprint with
  | Some f when same_content f.of_content p -> Some f.value
  | Some _ | None -> None

let remember_fingerprint p value =
  p.fingerprint <- Some { value; of_content = { p with fingerprint = None } }

(* Structural counts from the tape: per-position labels give
   [exec_count], the recorded incoming edges [edge_count] and
   [entry_count], and consecutive pairs of incoming edges the local
   paths.  A path (pred, node, succ) is determined by the edge that
   entered [node] (-1 for the program entry) and which of [node]'s at
   most two out-edges left it, so paths are counted in a dense array and
   then inserted into the table in order of first occurrence — the
   insertion sequence, and hence the fold order, of a table updated
   once per dynamic block. *)
let structural cfg (tape : Tape.t) =
  let n_blocks = Cfg.num_blocks cfg in
  let edges = Cfg.edges cfg in
  let n_edges = Array.length edges in
  let exec_count = Array.make n_blocks 0 in
  let edge_count = Array.make n_edges 0 in
  let entry_count = ref 0 in
  (* First out-edge per block: out-edges are contiguous in [edges]. *)
  let out_base = Array.make n_blocks (-1) in
  Array.iteri
    (fun i (e : Cfg.edge) ->
      if out_base.(e.src) < 0 then out_base.(e.src) <- i)
    edges;
  let label p = tape.Tape.variants.(Tape.variant_at tape p).Tape.label in
  let key p =
    ((Tape.edge_at tape (p - 1) + 1) * 2)
    + Tape.edge_at tape p - out_base.(label (p - 1))
  in
  let path_count = Array.make (2 * (n_edges + 1)) 0 in
  let len = Tape.positions tape in
  for p = 0 to len - 1 do
    let j = label p in
    exec_count.(j) <- exec_count.(j) + 1;
    let e = Tape.edge_at tape p in
    if e >= 0 then edge_count.(e) <- edge_count.(e) + 1
    else incr entry_count;
    if p > 0 then begin
      let k = key p in
      path_count.(k) <- path_count.(k) + 1
    end
  done;
  (* [~random:false]: the fold order is the profile's [paths] order,
     which feeds the store fingerprint and the MILP's variable order. *)
  let path_tbl : (path, int) Hashtbl.t = Hashtbl.create ~random:false 64 in
  for p = 1 to len - 1 do
    let k = key p in
    if path_count.(k) > 0 then begin
      let pred = if p >= 2 then Some (label (p - 2)) else None in
      Hashtbl.replace path_tbl
        { pred; node = label (p - 1); succ = label p }
        path_count.(k);
      path_count.(k) <- 0
    end
  done;
  ( exec_count, edge_count, !entry_count,
    Hashtbl.fold (fun p c acc -> (p, c) :: acc) path_tbl [] )

let collect ?fuel config cfg ~memory =
  let n_modes = Dvs_power.Mode.size config.Config.mode_table in
  let n_blocks = Cfg.num_blocks cfg in
  (* One recorded execution serves every mode (Assumption 1: modes
     change timing, not behavior), and afterwards the verification of
     this input's schedules: the profile holds it until a pipeline call
     takes it. *)
  let memory = Array.copy memory in
  let session = Summary.create ?fuel config cfg ~memory in
  let exec_count, edge_count, entry_count, paths =
    structural cfg (Summary.tape session)
  in
  let total_time = Array.make_matrix n_modes n_blocks 0.0 in
  let total_energy = Array.make_matrix n_modes n_blocks 0.0 in
  let runs =
    Array.init n_modes (fun m ->
        Summary.replay_pinned session ~mode:m ~time:total_time.(m)
          ~energy:total_energy.(m))
  in
  { cfg; config; exec_count; edge_count; entry_count; paths; total_time;
    total_energy; runs;
    recording =
      Atomic.make
        (Some
           { rec_config = config; rec_cfg = cfg; rec_memory = memory;
             rec_summary = session });
    fingerprint = None }

let block_time p ~mode j =
  if p.exec_count.(j) = 0 then 0.0
  else p.total_time.(mode).(j) /. float_of_int p.exec_count.(j)

let block_energy p ~mode j =
  if p.exec_count.(j) = 0 then 0.0
  else p.total_energy.(mode).(j) /. float_of_int p.exec_count.(j)

let g_of_edge p e = p.edge_count.(Cfg.edge_index p.cfg e)

let pinned_time p ~mode = p.runs.(mode).Cpu.time

let pinned_energy p ~mode = p.runs.(mode).Cpu.energy

let pp_summary ppf p =
  let n_modes = Array.length p.runs in
  Format.fprintf ppf "@[<v>%d blocks, %d edges, %d paths@,"
    (Cfg.num_blocks p.cfg)
    (Array.length (Cfg.edges p.cfg))
    (List.length p.paths);
  for m = 0 to n_modes - 1 do
    let r = p.runs.(m) in
    Format.fprintf ppf "mode %d: %.3f ms, %.1f uJ, %d instrs@," m
      (r.Cpu.time *. 1e3) (r.Cpu.energy *. 1e6) r.Cpu.dyn_instrs
  done;
  Format.fprintf ppf "@]"
