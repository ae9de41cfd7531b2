(* perfbench: the repository benchmark for the DVS compiler.

     perfbench --workload W --seed N --seconds S --trace 0|1

   Runs one workload for about S seconds of timed work, checks every
   output, prints a human-readable report and, as its last line, one
   JSON object {correct, attempted, failed, metrics}.  With --trace 0 the
   metrics are the end-to-end set; with --trace 1 the per-layer set (see
   perfbench/WORKLOADS.md).  Exits 1 when any output check fails. *)

let workloads =
  [ ("table4-cold", `Batch Batch.Cold); ("unfiltered-sweep", `Batch Batch.Unfiltered);
    ("service-mix", `Service); ("table4-warm", `Batch Batch.Warm) ]

let usage () =
  prerr_endline
    "usage: perfbench --workload W --seed N --seconds S --trace 0|1\n\
     workloads: table4-cold, unfiltered-sweep, service-mix, table4-warm";
  exit 2

let parse argv =
  let rec go acc = function
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      go ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = go [] (List.tl (Array.to_list argv)) in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let w = get "workload" in
  let kind = match List.assoc_opt w workloads with Some k -> k | None -> usage () in
  let seconds = int "seconds" in
  let trace = int "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  (w, kind, int "seed", float_of_int seconds, trace = 1)

(* Shortest decimal that reads back to the same float: all its digits. *)
let num v =
  if not (Float.is_finite v) then "0"
  else
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

let json_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (num v) u)
          metrics))

let () =
  let name, kind, seed, seconds, trace = parse Sys.argv in
  (* Stores and sockets live in a per-process directory of the checkout. *)
  let work = Filename.concat ".perfbench" (string_of_int (Unix.getpid ())) in
  Stats.mkdir_p work;
  let r =
    Fun.protect
      ~finally:(fun () -> Stats.rm_rf work)
      (fun () ->
        match kind with
        | `Batch k -> Batch.run k ~seed ~seconds ~trace ~work
        | `Service -> Service_mix.run ~seed ~seconds ~trace ~work)
  in
  (try Unix.rmdir ".perfbench" with Unix.Unix_error _ -> ());
  let jobs = List.length r.Report.job_ms in
  let tail, pct, beyond = Stats.tail r.Report.job_ms in
  (* Wall times are reported at reference speed (see Calib). *)
  let setup_raw = Stats.median r.Report.setup_reps in
  let jobs_per_s_raw = Stats.ratio (float_of_int jobs) r.Report.timed_s in
  let p50_raw = Stats.quantile r.Report.job_ms 0.5 in
  let tail_ref, _, _ = Stats.tail r.Report.job_ref_ms in
  let end_to_end =
    [ ("setup_s", Stats.median r.Report.setup_ref, "s");
      ("jobs_per_s", Stats.ratio (float_of_int jobs) r.Report.timed_ref_s, "jobs/s");
      ("job_p50_ms", Stats.quantile r.Report.job_ref_ms 0.5, "ms");
      ("job_tail_ms", tail_ref, "ms");
      ( "ok_frac",
        1.0 -. Stats.ratio (float_of_int r.Report.failed) (float_of_int r.Report.attempted),
        "ratio" );
      ("energy_saving_pct", Stats.mean_or_zero r.Report.savings, "%");
      ( "alloc_mw_per_job",
        Stats.ratio r.Report.alloc_words (float_of_int jobs) /. 1e6,
        "Mwords" );
      ("peak_heap_mb", Stats.peak_heap_mb (), "MB") ]
  in
  let correct = r.Report.failed = 0 && r.Report.attempted > 0 in
  Printf.printf "workload %s  seed %d  seconds %.0f  trace %d\n" name seed seconds
    (if trace then 1 else 0);
  List.iter print_endline r.Report.lines;
  Printf.printf "set-up repetitions (s): %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.3f") (List.rev r.Report.setup_reps)));
  Printf.printf "failed_frac %.4f (%d of %d)\n"
    (Stats.ratio (float_of_int r.Report.failed) (float_of_int r.Report.attempted))
    r.Report.failed r.Report.attempted;
  Printf.printf "job_tail_ms is p%.1f of %d jobs (%d beyond it)\n" pct jobs beyond;
  Printf.printf
    "host speed: calibration kernel mean %.2f ms over %d samples (min %.2f, max \
     %.2f), reference %.2f ms\n"
    (1e3 *. Stats.mean !Calib.taken) (List.length !Calib.taken)
    (1e3 *. List.fold_left Float.min infinity !Calib.taken)
    (1e3 *. List.fold_left Float.max neg_infinity !Calib.taken)
    (1e3 *. Calib.reference_s);
  Printf.printf
    "raw wall, before scaling to reference speed: setup_s %.4f, jobs_per_s %.4f, \
     job_p50_ms %.2f, job_tail_ms %.2f\n"
    setup_raw jobs_per_s_raw p50_raw tail;
  let layers =
    r.Report.layers @ [ ("host.calib_ms", 1e3 *. Stats.mean !Calib.taken, "ms") ]
  in
  let metrics =
    if trace then begin
      print_endline "per-layer (per job unless the unit says otherwise):";
      List.iter
        (fun (n, v, u) ->
          let base =
            match List.find_opt (fun (m, _, _) -> m = n) Layers.ratio_bases with
            | Some (_, num, den) -> Printf.sprintf "   [%s / %s]" num den
            | None -> ""
          in
          Printf.printf "  %-26s %14.6g %-9s%s\n" n v u base)
        layers;
      layers
    end
    else begin
      print_endline "end-to-end:";
      List.iter (fun (n, v, u) -> Printf.printf "  %-18s %14.6g %s\n" n v u) end_to_end;
      end_to_end
    end
  in
  print_endline
    (json_line ~correct ~attempted:r.Report.attempted ~failed:r.Report.failed metrics);
  exit (if correct then 0 else 1)
