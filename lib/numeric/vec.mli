(** Dense float vectors.

    Thin helpers over [float array] used by the simplex solver and the
    analytical sweeps.  All operations are eager and allocate fresh arrays
    unless the name says otherwise ([*_inplace]). *)

type t = float array

val create : int -> t
(** [create n] is the zero vector of dimension [n]. *)

val init : int -> (int -> float) -> t

val copy : t -> t

val dim : t -> int

val dot : t -> t -> float
(** [dot x y] is the inner product.  Raises [Invalid_argument] on dimension
    mismatch. *)

val scale : float -> t -> t

val axpy_inplace : float -> t -> t -> unit
(** [axpy_inplace a x y] performs [y <- a*x + y]. *)

val add : t -> t -> t

val sub : t -> t -> t

val norm_inf : t -> float

val max_index : t -> int
(** Index of the maximum entry (first one on ties). Raises on empty. *)

val min_index : t -> int

val linspace : float -> float -> int -> t
(** [linspace a b n] is [n] evenly spaced points from [a] to [b]
    inclusive; [n >= 2]. *)

val pp : Format.formatter -> t -> unit
