(* What one workload run hands back to [Perfbench]. *)

type t = {
  setup_reps : float list;  (** seconds of each repeated set-up *)
  job_ms : float list;  (** latency of every untraced timed job *)
  timed_s : float;  (** untraced timed wall: the sum of those jobs *)
  setup_ref : float list;  (** [setup_reps] at reference speed ({!Calib}) *)
  job_ref_ms : float list;  (** [job_ms] at reference speed *)
  timed_ref_s : float;  (** [timed_s] at reference speed *)
  attempted : int;  (** points (batch) or requests (service) attempted *)
  failed : int;
  savings : float list;  (** verified saving of every passing point, % *)
  alloc_words : float;  (** allocated over the untraced timed jobs *)
  layers : (string * float * string) list;  (** traced runs only *)
  lines : string list;  (** human-readable report, printed before the JSON *)
}

(* Failure details go to stderr, at most a handful per run. *)
let failures_shown = ref 0

let note_failure fmt =
  Printf.ksprintf
    (fun s ->
      incr failures_shown;
      if !failures_shown <= 10 then prerr_endline ("FAIL " ^ s))
    fmt
