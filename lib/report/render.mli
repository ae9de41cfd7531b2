(** Rendering of sweep surfaces and 1-D series as text: the stand-in for
    the paper's 3-D plots.  Each surface prints as a numeric grid (values
    in percent for savings surfaces) plus a coarse character shade so the
    peaks are visible at a glance. *)

val surface : Dvs_analytical.Sweep.surface -> string
(** Values print as percent (fractions times 100), one decimal. *)

val series :
  x_label:string -> y_label:string -> ?digits:int ->
  (float * float) list -> string
(** Two-column listing plus an inline bar chart. *)
