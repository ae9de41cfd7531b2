(* Small numeric and clock helpers shared by every workload. *)

let now = Unix.gettimeofday

let sorted xs = Array.of_list (List.sort Float.compare xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let mean_or_zero xs = match xs with [] -> 0.0 | _ -> mean xs

let sum xs = List.fold_left ( +. ) 0.0 xs

(* Harrell-Davis estimate of the q-quantile: the mean of all order
   statistics weighted by the Beta((n+1)q, (n+1)(1-q)) mass over each
   rank's slice of [0, 1].  Job latencies come from a few programs of
   very different cost, so any single rank sits on the edge between two
   of them and jumps with noise; the weighted estimate does not. *)
let quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n <= 1 then (if n = 0 then nan else a.(0))
  else
    let al = (float_of_int (n + 1) *. q) -. 1.0
    and be = (float_of_int (n + 1) *. (1.0 -. q)) -. 1.0 in
    (* The density is integrated by the midpoint rule in log space; its
       normalizing constant cancels below. *)
    let steps = 16 in
    let h = 1.0 /. float_of_int (n * steps) in
    let logs =
      Array.init (n * steps) (fun j ->
          let t = (float_of_int j +. 0.5) *. h in
          (al *. Float.log t) +. (be *. Float.log (1.0 -. t)))
    in
    let top = Array.fold_left Float.max neg_infinity logs in
    let w = Array.make n 0.0 in
    Array.iteri
      (fun j l -> w.(j / steps) <- w.(j / steps) +. Float.exp (l -. top))
      logs;
    let total = Array.fold_left ( +. ) 0.0 w in
    let acc = ref 0.0 in
    Array.iteri (fun i x -> acc := !acc +. (w.(i) *. x)) a;
    !acc /. total

(* The highest percentile that still has at least ten samples beyond it,
   never below the median, and its estimate.  Returns (value,
   percentile, samples beyond it). *)
let tail xs =
  let n = List.length xs in
  if n = 0 then (nan, 0.0, 0)
  else
    let i = Int.max (n / 2) (n - 11) in
    let q = float_of_int (i + 1) /. float_of_int n in
    (quantile xs q, 100.0 *. q, n - 1 - i)

(* Division that reads 0 on an empty base, so a ratio whose base is
   absent on a workload still prints as a number. *)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* (max - min) / median: the spread of a set of repeated measurements. *)
let spread xs =
  match xs with
  | [] -> 0.0
  | _ ->
    let a = sorted xs in
    ratio (a.(Array.length a - 1) -. a.(0)) (median xs)

(* ---- allocation gauges ---------------------------------------------- *)

(* Whole-program counters: under OCaml 5 [Gc.quick_stat] includes the
   allocation of every running and joined domain. *)
type gc = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

let gc () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; promoted_words = s.Gc.promoted_words;
    major_words = s.Gc.major_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections }

let allocated_words ~before ~after =
  after.minor_words -. before.minor_words
  +. (after.major_words -. before.major_words)
  -. (after.promoted_words -. before.promoted_words)

let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1e6

(* The benchmark's own span around one call into a layer: its result
   and its wall seconds. *)
let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---- files ---------------------------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
