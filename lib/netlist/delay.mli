(** Delays as exact integer ticks: one tick is 0.001 delay units.

    Every gate delay, arrival time, clock period and path delay is a whole
    number of ticks, so sums are exact and comparisons need no margin.  This
    module alone knows the scale: it reads decimal text into ticks and turns
    ticks into a float for printing. *)

type t = int

val unit : t
(** One delay unit (1.0): the unit-delay model's cost of a logic node. *)

val of_string : string -> t option
(** Decimal text to ticks, exactly: digits with an optional fraction
    ([1.2], [.5], [2.], [1.2340]).  [None] for anything else, including
    [nan], [inf], a sign, an exponent, a value that is not a whole number of
    ticks ([1.2345]) and more than 12 digits before the point. *)

val to_float : t -> float
(** For printing only. *)

val to_string : t -> string
(** Exact decimal text ([1.234]) that {!of_string} reads back. *)
