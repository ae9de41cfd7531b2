(** One-dimensional optimization and root finding.

    The analytical DVS model reduces every case to minimizing a univariate
    (piecewise-)smooth energy function over a voltage or time interval, and
    to inverting the monotone alpha-power frequency law.  These routines are
    deliberately derivative-free and robust rather than fast.

    In every function the objective is the final positional argument. *)

val golden_section :
  lo:float -> hi:float -> (float -> float) -> float * float
(** [golden_section ~lo ~hi f] minimizes a unimodal [f] on [[lo, hi]];
    returns the pair [(xmin, f xmin)].  It stops when the bracket is
    narrower than [1e-9] times the interval width, floored at
    [1e-12]. *)

val grid_minimize :
  n:int -> lo:float -> hi:float -> (float -> float) -> float * float
(** [grid_minimize ~n ~lo ~hi f] samples [f] at [n] evenly spaced points and
    then runs two golden-section passes around the best sample.  Robust
    for multimodal staircase-like objectives such as the
    discrete-voltage [Emin(y)] curve. *)

val bisect : lo:float -> hi:float -> (float -> float) -> float option
(** [bisect ~lo ~hi f] finds a root of [f] on [[lo, hi]] by bisection, to
    a bracket of [1e-12] or 200 halvings.  Returns [None] when [f lo]
    and [f hi] have the same strict sign. *)

val invert_increasing :
  lo:float -> hi:float -> (float -> float) -> float -> float
(** [invert_increasing ~lo ~hi f y] returns [x] in [[lo, hi]] with
    [f x = y] for a nondecreasing [f], clamping to the interval ends when
    [y] lies outside [[f lo, f hi]]. *)
