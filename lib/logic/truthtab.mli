(** Dense truth tables for functions of up to 20 variables.

    Bit [i] of the table is the function value on the point whose variable [v]
    equals bit [v] of [i].  The table packs 32 points into each [int] word:
    variables 0-4 index bits inside a word and variables 5 and up select
    words, so a table over [n] variables has [max 1 (2^(n-5))] words.  Used
    as a reference semantics in tests, for small-node manipulations and as
    {!Minimize}'s set representation for covers of up to 14 variables. *)

type t

val nvars : t -> int

val create : int -> (bool array -> bool) -> t
(** [create n f] tabulates [f].  The point array passed to [f] is reused
    from one call to the next, so [f] must not keep it. *)

val of_cover : Cover.t -> t
(** Word-parallel: each cube ORs one in-word mask into the words it spans. *)

val to_cover : t -> Cover.t
(** Minterm-canonical cover (one cube per ON point). *)

val const : int -> bool -> t

val var : int -> int -> t

val get : t -> int -> bool
(** Value on the minterm with the given index. *)

val eval : t -> bool array -> bool

val equal : t -> t -> bool

val count_ones : t -> int

val band : t -> t -> t
val bor : t -> t -> t
val bxor : t -> t -> t
val bnot : t -> t

val cofactor : t -> int -> bool -> t

val depends_on : t -> int -> bool

(** {2 Cubes on the word layout}

    The kernel interface {!Minimize} scans with.  A cube's points sit at the
    same bits of every word it touches, and the words it touches differ
    only in its unbound variables of index 5 and up. *)

val word_vars : int
(** 5: the variables that index bits inside a word. *)

type span = {
  mask : int;  (** the cube's points inside each word it touches *)
  base : int;  (** word index bits of its bound variables 5 and up *)
  free : int;  (** word index bits of its unbound variables 5 and up *)
}
(** The words a cube touches are [base lor s] for every subset [s] of
    [free]; its points are the [mask] bits of those words.  [base] and
    [free] share no bit, and [mask] holds only bits that are points of a
    table of the cube's width. *)

val span : Cube.t -> span

val span_words : span -> int
(** Number of words the span touches: [2^(popcount free)]. *)

val next_subset : int -> int -> int
(** [next_subset free s] is the subset of [free] after [s] in increasing
    order; from [0], the subsets come in order and [free] is the last one
    (after it the sequence wraps back to [0]). *)

val within : t -> span -> bool
(** Every point of the span is in the table. *)

val supercube : int -> bits:int -> words_and:int -> words_or:int -> Cube.t
(** [supercube n ~bits ~words_and ~words_or] is the smallest cube over [n]
    variables that contains a non-empty point set, given the OR of its
    in-word bits and the AND and OR of the indices of the words it
    occupies. *)

val words : t -> int array
(** The table's words, in index order.  Shared, not copied: read only. *)
