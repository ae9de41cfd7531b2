(** The simplex basis as a sparse LU factorization ({!Lu}: Markowitz
    ordering, threshold partial pivoting) plus a product-form eta file —
    one eta per pivot, capturing the FTRAN column [B^-1 a_e], so the
    factorization itself is never touched between refactorizations.

    FTRAN applies the LU triangular solves, then the etas in pivot
    order; BTRAN applies the transposed etas in reverse order, then the
    transposed LU solves.  Every pass runs in scatter form and skips
    exactly-zero components, which is where right-hand-side
    hypersparsity (unit vectors, slack columns, short structural
    columns) pays off.

    {!needs_refactor} fires when the eta file holds more than twice
    [factor nnz + m] entries, or after 256 pivots, whichever comes
    first.

    {!pin} keeps the current LU and its etas in place: while a pin is
    held, {!factor} starts the new eta file after the pinned etas
    instead of at index 0, so {!restore} brings the pinned factor back
    by resetting two indices, with no copy and no factorization. *)

include Basis.S

val eta_fill_due : max_updates:int -> growth:float -> t -> bool
(** [eta_fill_due ~max_updates ~growth t]: at least one update since the
    last factorization, and either [max_updates] of them or an eta file
    holding more than [growth * (factor nnz + m)] entries.
    {!needs_refactor} is [eta_fill_due ~max_updates:256 ~growth:2.0];
    tests vary the cadence through it. *)
