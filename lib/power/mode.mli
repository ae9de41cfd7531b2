(** Discrete DVS operating modes: (supply voltage, clock frequency) pairs.

    A {e mode table} is the processor's finite menu of settings, ordered by
    increasing frequency.  The paper evaluates an XScale-like 3-mode table
    plus synthetic tables with 3, 7 and 13 levels. *)

type t = { voltage : float;  (** volts *) frequency : float  (** hertz *) }

val make : voltage:float -> frequency:float -> t
(** Raises [Invalid_argument] on non-positive voltage or frequency. *)

val pp : Format.formatter -> t -> unit

type table = private t array
(** Nonempty, strictly increasing in frequency (and voltage). *)

val table_of_list : t list -> table
(** Sorts by frequency; raises [Invalid_argument] if empty or if two modes
    share a frequency or if voltages are not increasing along frequencies. *)

val xscale3 : table
(** The Section 5.1 table: 200 MHz @ 0.7 V, 600 MHz @ 1.3 V,
    800 MHz @ 1.65 V. *)

val levels : ?law:Alpha_power.t -> v_lo:float -> v_hi:float -> int -> table
(** [levels ~v_lo ~v_hi n] is [n] modes with voltages evenly spaced on
    [[v_lo, v_hi]] and frequencies from the alpha-power [law]
    (default {!Alpha_power.default}).  Used for the 3/7/13-level studies. *)

val xscale_levels : int -> table
(** [n] evenly spaced levels over {!xscale3}'s frequency range: from the
    {!Alpha_power.default} voltage at 200 MHz to 1.65 V, so a level
    table's feasible-deadline window matches the measured one. *)

val min_mode : table -> t
(** Lowest-frequency mode. *)

val max_mode : table -> t

val size : table -> int

val get : table -> int -> t

val to_list : table -> t list

val neighbors : table -> float -> t * t
(** [neighbors tbl f] are the two table modes bracketing frequency [f]:
    the fastest mode with frequency [<= f] and the slowest with [>= f].
    Clamps at the table ends (both components equal there).  This is the
    Ishihara-Yasuura neighbor rule the discrete analysis relies on. *)

val index_of : table -> t -> int
(** Index of a mode in the table (compared by frequency).  Raises
    [Not_found] if absent. *)
