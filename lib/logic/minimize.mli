(** Two-level minimization with don't-cares (espresso-lite).

    Implements the classical expand / irredundant / reduce loop over an
    ON-set cover [f] and a DC-set cover [dc].  The result covers exactly the
    minterms of [f] outside [dc], may absorb any minterm of [dc], and never
    intersects the OFF-set. *)

val expand : off:Cover.t -> Cover.t -> Cover.t
(** Raise each cube's literals greedily as long as the expanded cube stays
    disjoint from [off]; then drop single-cube-contained cubes. *)

val irredundant : dc:Cover.t -> Cover.t -> Cover.t
(** Remove cubes covered by the rest of the cover plus [dc]. *)

val reduce : dc:Cover.t -> Cover.t -> Cover.t
(** Shrink each cube [c], in order, to the supercube of its essential part:
    the minterms of [c] outside [R], where [R] is the rest of the cover
    (already-reduced cubes before [c], original cubes after it) plus [dc].
    It is computed as [c] minus [R_c], the cofactor of [R] against [c], so
    the complement is taken of the small cofactor rather than of [R] (the
    espresso REDUCE).  Inside [c], [R] and [R_c] agree, so the point set,
    and with it the supercube, is that of [c] minus [R].  A cube with no
    essential part is dropped. *)

val minimize : ?dc:Cover.t -> Cover.t -> Cover.t
(** Full loop until the (cube count, literal count) cost stops improving. *)
