(** Optional IR optimizations.

    The MiniC lowering is deliberately naive (every literal becomes an
    [Li], scalar copies become [Mov]); these passes clean that up.  They
    are {e not} applied by default — workload timing characteristics are
    calibrated against the naive code — but the ablation experiment
    measures how compiler optimization shifts the DVS parameter mix, and
    the test-suite checks semantic preservation.

    All passes preserve [Store], [Modeset] and control behavior
    exactly. *)

val constant_fold : Cfg.t -> Cfg.t
(** Block-local constant propagation and folding, copy propagation, and
    constant-branch-to-jump rewriting. *)

val dead_code : ?exit_live:Instr.reg list -> Cfg.t -> Cfg.t
(** Remove pure instructions whose destination is dead (global liveness;
    [exit_live] as in {!Liveness.compute}). *)

val optimize : ?exit_live:Instr.reg list -> Cfg.t -> Cfg.t
(** [constant_fold] then [dead_code], iterated 3 rounds or to a fixed
    point, whichever first. *)

val instruction_count : Cfg.t -> int
