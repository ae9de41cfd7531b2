(** Basis representations for the revised simplex.

    {!Simplex.Make} is parameterized by a module of signature {!S}: the
    object that factors the current basis matrix [B], solves against it
    (FTRAN [B w = a], BTRAN [B^T y = c]), absorbs one column exchange
    per pivot, and says when it has degraded enough to be rebuilt.  The
    simplex owns every pricing, ratio-test and phase decision; a basis
    module only does linear algebra, so two modules that solve
    accurately walk the same pivot sequence.

    The library carries one implementation, {!Lu_eta} (sparse LU plus a
    product-form eta file), and it is the only factorization in the
    library.  The test suite instantiates the simplex a second time over
    an explicit dense Gauss–Jordan inverse and uses it as the oracle. *)

type counters = {
  mutable flops : int;
      (** floating-point work actually performed: 2 per entry multiplied
          and accumulated, no dense m^2/m^3 formulas *)
  mutable factorizations : int;  (** successful {!S.factor} calls *)
  mutable restores : int;
      (** successful {!S.restore} calls: factorizations a solve reused
          instead of building *)
  mutable fill_in : int;
      (** factor entries beyond the basis nnz, summed over
          factorizations *)
  mutable update_nnz : int;  (** entries recorded by {!S.update}, summed *)
  mutable ftran_skips : int;
      (** FTRAN steps skipped because their running component was exactly
          zero (hypersparsity) *)
  mutable btran_skips : int;  (** same, for BTRAN *)
}

val counters : unit -> counters
(** Fresh counters, all zero. *)

val reset : counters -> unit
(** Zero every counter. *)

module type S = sig
  type t
  (** Mutable basis state, grown on demand and reused across solves.  Not
      thread-safe. *)

  val create : unit -> t

  val counters : t -> counters
  (** The live counters of this basis; {!Simplex} zeroes them at the
      start of every solve. *)

  val factor :
    t -> m:int -> ptr:int array -> row:int array -> vals:float array -> bool
  (** Factor the [m]x[m] basis whose column [i] (basis position [i])
      holds entries [row.(p), vals.(p)] for
      [p] in [ptr.(i) .. ptr.(i+1) - 1].  Discards every earlier update.
      [false] when the matrix is singular to working precision; the
      state is then unusable until the next successful [factor]. *)

  val ftran : t -> float array -> unit
  (** [ftran t x] overwrites the first [m] entries of [x] with
      [B^-1 x]. *)

  val btran : t -> float array -> unit
  (** [btran t x] overwrites the first [m] entries of [x] with
      [B^-T x]. *)

  val update : t -> r:int -> w:float array -> unit
  (** Replace basis position [r]'s column by the entering column [a],
      given as [w = B^-1 a] under the current [B] (the FTRAN the ratio
      test already computed). *)

  val updates : t -> int
  (** {!update} calls since the last {!factor}. *)

  val needs_refactor : t -> bool
  (** Whether the next iteration should rebuild the factorization. *)

  val pin : t -> unit
  (** Keep the current factorization, updates included, so that
      {!restore} can bring it back after later {!factor} and {!update}
      calls.  Replaces any earlier pin. *)

  val restore : t -> bool
  (** Make the pinned factorization current again, exactly as {!pin}
      left it; the pin stays held.  [false] (state unchanged) when
      nothing is pinned or the module keeps no pinned copy. *)

  val unpin : t -> unit
  (** Drop the pin; the current factorization is unaffected. *)
end
