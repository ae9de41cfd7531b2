(** Cutting planes for the DVS mode-assignment MILP, shared across a
    deadline sweep.

    Three separator families, all rooted in the paper's model shape
    (binary mode choices grouped one-per-edge under a single deadline
    knapsack row):

    - {!gomory}: Gomory mixed-integer cuts read off the sparse LU
      tableau ({!Dvs_lp.Simplex.tableau}) of the (possibly already
      cut-augmented) LP relaxation;
    - {!covers}: knapsack cover cuts separated from the deadline row's
      binary terms;
    - {!gub_covers}: GUB cover cuts that use the one-mode-per-edge SOS1
      structure — each group contributes at least its cheapest selected
      mode time, so small sets of "heavy" modes per group can already
      overrun the deadline.

    Every cut carries a validity tag [valid_le]: the cut is valid for
    any deadline value [d <= valid_le] (in the deadline row's RHS
    units).  Deadline-independent cuts have [valid_le = infinity] and
    are re-applied verbatim across sweep points; cover/GUB cuts are
    valid below their covering weight sum and so survive to every
    tighter point; Gomory cuts derived through the deadline row are
    valid at their own point and all tighter ones.

    A {!Pool.t} deduplicates cuts structurally (scaled, rounded
    coefficient vectors), so the same cover rediscovered at a later
    sweep point counts as a pool hit rather than a new row.  The pool is
    not thread-safe. *)

open Dvs_lp

type origin = Gomory | Cover | Gub

type t = {
  coeffs : (Model.var * float) list;  (** structural terms, ascending var *)
  cmp : Model.cmp;  (** [Le] or [Ge] — never [Eq] *)
  rhs : float;
  valid_le : float;  (** valid for deadline RHS values [<= valid_le] *)
  origin : origin;
  born : float;  (** deadline RHS value of the separating sweep point *)
}

val pp : Format.formatter -> t -> unit

val violation : t -> float array -> float
(** Amount by which a point (indexed by {!Model.var}) violates the cut;
    [<= 0] when satisfied. *)

val satisfied : t -> float array -> bool
(** [violation] within [1e-6]. *)

val add_to_model : Model.t -> t -> unit
(** Append the cut as an ordinary constraint row (named ["cut"]). *)

(** {2 Separators} *)

val gomory :
  compiled:Compiled.t ->
  tableau:Simplex.tableau ->
  x:float array ->
  deadline:float ->
  row_valid_le:float array ->
  bounds_pristine:bool ->
  max_cuts:int ->
  t list
(** Gomory mixed-integer cuts from every tableau row whose basic
    variable is integer with a usefully fractional value, strongest
    violation first, at most [max_cuts].

    [x] is the LP solution the tableau was built from (structural
    values).  [row_valid_le.(i)] caps the validity of any cut whose
    derivation touches row [i]'s right-hand side (deadline rows carry
    the current deadline, previously added cut rows carry their own
    [valid_le], base rows [infinity]).  [bounds_pristine] declares
    whether the compiled model's current bounds equal its pristine ones;
    when [false] (e.g. deadline-implied fixings are applied) every
    derived cut is capped at [deadline].  Cuts are emitted in [Ge] form
    over structural variables only — slack columns are substituted out
    through their defining rows.  Coefficients below [1e-10] of the
    largest are dropped, each paid for with its worst-case contribution
    over the pristine bounds, and a cut whose remaining coefficients
    span a range ([max / min] magnitude) of [1e6] or more is rejected. *)

val covers :
  row:(float * Model.var) list ->
  deadline:float ->
  x:float array ->
  t list
(** Knapsack cover cuts from the deadline row restricted to its binary
    terms [(weight, var)] with positive weights: a greedy cover [C] with
    total weight beyond [deadline] yields [sum_C k <= |C| - 1], emitted
    only when violated by [x].  Valid for any deadline below the cover's
    weight sum. *)

val gub_covers :
  groups:(Model.var array * float array) list ->
  deadline:float ->
  x:float array ->
  t list
(** GUB cover cuts over one-mode-per-edge groups: [groups] pairs each
    group's binaries with their deadline-row weights.  Selecting a
    threshold mode set per group whose minimum times (plus every other
    group's cheapest mode) exceed the deadline forbids all chosen groups
    from simultaneously picking heavy modes.  Valid for any deadline
    below the certifying weight sum. *)

(** {2 Deduplicated pool} *)

module Pool : sig
  type cut = t

  type t

  val create : unit -> t
  (** An empty pool of at most 1024 cuts; once full, {!add} rejects new
      cuts. *)

  val add : t -> cut -> bool
  (** [true] if the cut is new; [false] if a structurally identical cut
      is already pooled (its [valid_le] is widened to the max of the
      two) or the pool is full. *)

  val applicable : t -> deadline:float -> cut list
  (** Pooled cuts valid at the given deadline RHS value, in insertion
      order. *)

  val size : t -> int
end
