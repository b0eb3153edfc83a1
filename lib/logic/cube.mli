(** Cubes: products of literals over a fixed set of Boolean variables.

    A cube assigns to each variable one of three values: the variable appears
    as a negative literal ({!Zero}), as a positive literal ({!One}), or not at
    all ({!Both}, i.e. the cube does not depend on it).  A cube denotes the
    set of minterms consistent with its literals.

    The representation packs two bits per literal into native [int] words
    (espresso positional-cube encoding), so containment, intersection,
    distance and supercube run word-parallel.  The legacy one-variant-per-
    literal array implementation survives as the test-side [Cube_ref]
    library for differential testing. *)

type lit = Zero | One | Both

type t
(** Fixed-width packed cube.  Operations returning [t] allocate a fresh cube;
    the only mutating entry point is {!set} (plus in-place use of {!copy}),
    intended for builders and for scratch cubes in inner loops. *)

val universe : int -> t
(** [universe n] is the full cube over [n] variables (tautology product). *)

val of_string : string -> t
(** [of_string "01-"] parses a cube: ['0'] negative, ['1'] positive, ['-']
    absent.  Raises [Invalid_argument] on other characters. *)

val to_string : t -> string

val minterm : int -> bool array -> t
(** [minterm n point] is the cube containing exactly [point]. *)

val of_lits : lit array -> t
(** Build a cube from one literal per variable. *)

val to_lits : t -> lit array

val nvars : t -> int

val get : t -> int -> lit
(** Literal of variable [v]. *)

val set : t -> int -> lit -> unit
(** In-place update of one literal.  Use on freshly built or {!copy}ed cubes
    only: shared cubes must be treated as immutable. *)

val copy : t -> t

val iteri : (int -> lit -> unit) -> t -> unit
(** [iteri f c] applies [f v (get c v)] for every variable in order. *)

val lit_count : t -> int
(** Number of variables appearing as literals (non-[Both] positions). *)

val is_minterm : t -> bool

val equal : t -> t -> bool

val compare : t -> t -> int
(** Lexicographic by variable with [Zero < One < Both] — the same order the
    legacy array representation induced under [Stdlib.compare]. *)

val contains : t -> t -> bool
(** [contains a b] is true when every minterm of [b] is in [a] (single-cube
    containment: [a]'s literals are a subset of [b]'s). *)

val intersects : t -> t -> bool
(** [intersects a b] iff the cubes share a minterm; allocation-free
    equivalent of [intersect a b <> None]. *)

val intersect : t -> t -> t option
(** Product of two cubes; [None] when they are disjoint (opposing literals). *)

val distance : t -> t -> int
(** Number of variables on which the cubes have opposing literals.  Zero means
    they intersect; one means consensus exists. *)

val consensus : t -> t -> t option
(** Consensus on the single conflicting variable, when [distance] is 1. *)

val supercube : t -> t -> t
(** Smallest cube containing both arguments. *)

val cofactor : t -> int -> lit -> t option
(** [cofactor c v value] is the cofactor of [c] with respect to the literal
    [v=value]; [None] if [c] has the opposing literal.  [value] must not be
    [Both]. *)

val cube_cofactor : t -> t -> t option
(** [cube_cofactor c d] is the cofactor of [c] against the whole cube [d]:
    [None] when they are disjoint, otherwise [c] with every variable bound by
    [d] raised.  Word-parallel. *)

val eval : t -> bool array -> bool
(** Membership of a minterm, given as a point. *)

val raise_var : t -> int -> t
(** Copy with variable [v] raised to [Both]. *)

val set_var : t -> int -> lit -> t
(** Copy with variable [v] set to the given literal. *)

val depends_on : t -> int -> bool

val signature : t -> int
(** OR-fold of the packed words.  Wordwise subset implies signature subset:
    [contains a b] can only hold when
    [signature b land lnot (signature a) = 0], giving a one-word prefilter
    for containment sweeps. *)

val pp : Format.formatter -> t -> unit
