(** Sum-of-products covers over a fixed variable count.

    A cover is a list of {!Cube.t} over the same [nvars]; it denotes the union
    of its cubes.  Covers are immutable values. *)

type t = { nvars : int; cubes : Cube.t list }

val make : int -> Cube.t list -> t
(** [make n cubes] checks that every cube has width [n]. *)

val empty : int -> t
(** The constant-0 function (no cubes). *)

val tautology_cover : int -> t
(** The constant-1 function (one universe cube). *)

val of_strings : int -> string list -> t
(** Parse cubes with {!Cube.of_string}. *)

val var : int -> int -> t
(** [var n v] is the single positive literal [v] over [n] variables. *)

val nvar : int -> int -> t
(** [nvar n v] is the single negative literal [v]. *)

val size : t -> int
(** Cube count. *)

val lit_count : t -> int
(** Total literal count, the SIS cost measure. *)

val is_empty : t -> bool

val eval : t -> bool array -> bool

val cofactor : t -> int -> Cube.lit -> t
(** Shannon cofactor with respect to a literal. *)

val cube_cofactor : t -> Cube.t -> t
(** Generalized cofactor of the cover with respect to a cube. *)

val union : t -> t -> t

val intersect : t -> t -> t

val complement : t -> t
(** Complement by unate-recursive Shannon expansion. *)

val sharp : t -> t -> t
(** [sharp a b] is [a] minus [b] (set difference), as a cover. *)

(** {2 Containment}

    On covers of at most {!Cube.word_vars} variables the four tests below
    compare one word of minterm bits (the OR of {!Cube.word_mask} over the
    cubes); wider covers take the unate recursion. *)

val is_tautology : t -> bool

val covers_cube : t -> Cube.t -> bool
(** [covers_cube f c] is true when every minterm of [c] is in [f]. *)

val covers : t -> t -> bool
(** [covers f g]: [g] implies [f]. *)

val equivalent : t -> t -> bool

val depends_on : t -> int -> bool
(** Syntactic dependence: some cube has a literal on the variable. *)

val support : t -> int list
(** Variables with a literal in some cube, ascending. *)

val single_cube_containment : t -> t
(** Remove duplicate cubes and cubes contained in another single cube of the
    cover; the result is in {!Cube.compare} order.  An all-pairs sweep with
    O(1) signature and literal-count prefilters before each word-wise
    containment test. *)

val minterms : t -> bool array list
(** All satisfying points (exponential; for tests on small covers). *)

val rename : t -> int -> int array -> t
(** [rename f n' map] rewrites [f] onto [n'] variables, sending old variable
    [v] to [map.(v)] (which must be a valid new index). *)

val pp : Format.formatter -> t -> unit
