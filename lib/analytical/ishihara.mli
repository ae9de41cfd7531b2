(** The Ishihara-Yasuura (ISLPED'98) voltage-scheduling model the paper
    builds on — and argues is insufficient for programs with memory.

    It models a fixed number of {e cycles} to execute before a deadline,
    with no asynchronous memory component: under continuous scaling a
    single voltage is optimal, and under a discrete table the two
    neighbors of the ideal frequency are.  Included here so the bound
    comparison experiment can show exactly what ignoring [t_invariant]
    costs (the paper's Section 3 motivation): the bench runs the single
    frequency [cycles / deadline] against the paper's model. *)

val of_params : Params.t -> float
(** Total cycle count an IY-style model would see for a program with
    parameters [p]: every cycle, including the hit cycles — the memory
    wait time is (incorrectly) not modeled at all. *)
