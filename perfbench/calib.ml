(* Host-speed calibration.

   The reference machine is a 2-vCPU VM that shares its memory system
   with other tenants.  Over seconds the same job flips between a fast
   and a slow state about 1.6x apart, and whole runs drift by 20-30%,
   while a compute-bound loop that stays in L2 moves by under 10%: the
   program is as memory-bound as a plain streaming write, and what
   changes is the memory bandwidth the neighbours leave it.  In
   measurements a streaming write over a 16 MB buffer slowed by the
   same factor as the jobs next to it.

   So that drift is measured beside every wall time: [sample] times one
   fixed streaming-write kernel, and the workloads run it between their
   jobs.  A wall time is reported at reference speed: multiplied by
   [reference_s] over the mean kernel time sampled across the same
   stretch of the run.  The buffer lives outside the OCaml heap and the
   kernel allocates nothing, so no change to the program under test
   moves the kernel; only the host does. *)

let words = 1 lsl 21 (* 16 MB of 64-bit ints: past the last-level cache *)

let passes = 4

let buf = Bigarray.Array1.create Bigarray.int Bigarray.c_layout words

let kernel () =
  for p = 1 to passes do
    for i = 0 to words - 1 do
      Bigarray.Array1.unsafe_set buf i (i + p)
    done
  done;
  ignore (Sys.opaque_identity buf)

(* The kernel's wall seconds at reference speed: about its fast-state
   time on the reference machine. *)
let reference_s = 0.008

(* Seconds of one kernel run. *)
let sample () =
  let t0 = Stats.now () in
  kernel ();
  Stats.now () -. t0

(* Reference-speed factor of a stretch sampled by [samples]: multiply a
   wall time by it.  1 when nothing was sampled. *)
let factor samples =
  match samples with [] -> 1.0 | _ -> reference_s /. Stats.mean samples

(* Every sample of the run, latest first. *)
let taken = ref []

(* Stretches waiting for the sample after them: the sample before each,
   and what to do with its factor. *)
let pending = ref []

(* Take a sample, and give every stretch that was waiting for it the
   factor of the samples on either side.  Returns the sample. *)
let mark () =
  let c = sample () in
  taken := c :: !taken;
  List.iter (fun (before, k) -> k (factor [ before; c ])) (List.rev !pending);
  pending := [];
  c

(* [scaled before k]: a stretch that began right after the sample
   [before] ended; [k] gets its factor at the next [mark]. *)
let scaled before k = pending := (before, k) :: !pending

(* A stretch run as several parts with a sample between them, so that
   one longer than the host's spells is scaled part by part. *)
type stopwatch = { mutable raw : float; mutable at_reference : float }

let stopwatch () = { raw = 0.0; at_reference = 0.0 }

let part w f =
  let c = mark () in
  let r, d = Stats.time f in
  w.raw <- w.raw +. d;
  scaled c (fun k -> w.at_reference <- w.at_reference +. (d *. k));
  r

(* Seconds of all the parts: raw, and at reference speed. *)
let stop w =
  ignore (mark ());
  (w.raw, w.at_reference)
