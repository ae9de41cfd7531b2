(** One-time compilation of a {!Model} into flat sparse arrays.

    A compiled model is built once per MILP solve and shared (read-only,
    except for the bound arrays) across every node of the search: branch
    decisions only change variable bounds, never the constraint matrix,
    so the CSC/CSR structure, the row scaling and the objective stay
    valid for the whole tree.

    Layout: columns [0 .. n-1] are the model's structural variables (in
    model index order), columns [n .. n+m-1] are one slack per
    constraint row.  Every row is stored as the equality
    [a_i . x + s_i = rhs_i] with the inequality sense moved into the
    slack's bounds ([Le]: [0 <= s], [Ge]: [s <= 0], [Eq]: [s = 0]).
    Rows are equilibrated by their largest structural coefficient
    magnitude; the scale is positive so slack semantics and the
    comparison sense are unchanged. *)

type t = private {
  n : int;  (** structural variables (= [Model.num_vars]) *)
  m : int;  (** constraint rows *)
  nt : int;  (** total columns: [n + m] *)
  lb : float array;  (** current lower bounds, length [nt]; mutable via {!set_bounds} *)
  ub : float array;  (** current upper bounds, length [nt] *)
  lb0 : float array;  (** pristine lower bounds as compiled (never written) *)
  ub0 : float array;  (** pristine upper bounds as compiled (never written) *)
  integer : bool array;  (** length [n] *)
  obj : float array;  (** length [n], in the model's own sense *)
  obj_const : float;
  sense : Model.sense;
  (* Structural columns, CSC: column [j] occupies
     [col_ptr.(j) .. col_ptr.(j+1) - 1] of [col_row]/[col_val]. *)
  col_ptr : int array;
  col_row : int array;
  col_val : float array;
  (* The same entries, CSR: row [i] occupies
     [row_ptr.(i) .. row_ptr.(i+1) - 1] of [row_col]/[row_val]. *)
  row_ptr : int array;
  row_col : int array;
  row_val : float array;
  rhs : float array;  (** right-hand sides, length [m], row-scaled *)
  fingerprint : int;  (** structural hash; see {!fingerprint} *)
}

val of_model : Model.t -> t
(** Compile.  O(vars + constraints + nonzeros). *)

val objective : t -> float array -> float
(** [objective t x] is [obj_const + sum_j obj.(j) * x.(j)] over the
    structural columns, summed in column order: the objective every
    simplex solution of [t] reports for its values [x]. *)

val scratch : t -> t
(** A scratch view for one worker: fresh (pristine) bound arrays, every
    other field shared with the original.  Mutating the scratch's bounds
    never affects the original or other scratches. *)

val set_bounds : t -> int -> lb:float -> ub:float -> unit
(** Override the current bounds of structural column [j].
    Raises [Invalid_argument] for slack columns. *)

val reset_bounds : t -> int -> unit
(** Restore column [j]'s bounds to their pristine compiled values. *)

val fingerprint : t -> int
(** Deterministic structural hash of the compiled form — pristine
    bounds, integrality, objective, sense, matrix and rhs.  Two models
    compiling to identical arrays share a fingerprint; current bound
    overrides do not participate (callers key caches with the
    fingerprint plus their bound deltas). *)
