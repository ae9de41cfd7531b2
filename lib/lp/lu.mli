(** Sparse LU factorization of a simplex basis.

    [factor] first peels row and column singletons in O(nnz) with
    worklist queues — LP bases are mostly triangular, so this usually
    eliminates nearly everything, exactly and without fill — then runs
    a right-looking sparse Gaussian elimination on the residual bump
    with Markowitz pivot ordering (minimize [(r_i - 1) * (c_j - 1)]
    over the active submatrix) under threshold partial pivoting: an
    entry is an acceptable pivot only if its magnitude is at least
    [tau] times the largest magnitude in its active column.  The
    result is a permuted factorization [P B Q = L U] with [L] unit
    lower triangular.

    Both factors are stored twice — by column and by row — so all four
    triangular solves (FTRAN and BTRAN, i.e. [B w = a] and
    [B^T y = c]) run in scatter form: each step reads one solved
    component and, only when it is nonzero, pushes updates into the
    components it feeds.  A zero component costs one load and one test,
    which is where right-hand-side hypersparsity (unit vectors, slack
    columns, sparse structural columns) turns into skipped work; the
    solves report those skips so callers can surface them as counters.

    This module knows nothing about eta files or the simplex: it
    factors one basis matrix handed to it in CSC form and solves
    against that factorization.  {!Lu_eta} layers product-form eta
    updates on top. *)

type t

val factor : m:int -> ptr:int array -> row:int array -> vals:float array -> t option
(** [factor ~m ~ptr ~row ~vals] factors the [m]x[m] matrix whose
    column [j] holds entries [row.(p), vals.(p)] for
    [p] in [ptr.(j) .. ptr.(j+1) - 1].  Explicit zeros are dropped.
    Returns [None] when the matrix is singular to working precision
    (no candidate pivot of magnitude at least [1e-11] in some step —
    the same floor as the test suite's dense Gauss–Jordan oracle).  The
    threshold-pivoting tolerance [tau] is [0.1]. *)

val nnz : t -> int
(** Entries in [L] plus [U] including the [m] pivots; compare against
    the basis nnz for fill-in accounting. *)

val flops : t -> int
(** Multiply–subtract work performed by the elimination (2 per entry
    updated), the honest sparse counterpart of the dense [m^3]. *)

val ftran : t -> x:float array -> tmp:float array -> int * int
(** [ftran lu ~x ~tmp] overwrites [x] (length [m]) with [B^-1 x],
    using caller scratch [tmp] (length >= [m]).  Returns
    [(flops, skips)]: work charged at 2 per entry touched, and the
    number of solve steps short-circuited because their running
    component was exactly [0.0]. *)

val btran : t -> x:float array -> tmp:float array -> int * int
(** [btran lu ~x ~tmp] overwrites [x] with [B^-T x]; same contract as
    {!ftran}. *)
