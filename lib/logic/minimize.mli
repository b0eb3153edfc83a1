(** Two-level minimization with don't-cares (espresso-lite).

    Implements the classical expand / irredundant / reduce loop over an
    ON-set cover [f] and a DC-set cover [dc].  The result covers exactly the
    minterms of [f] outside [dc], may absorb any minterm of [dc], and never
    intersects the OFF-set.

    The loop runs on one of two set representations; both give the same
    cubes in the same order.
    - The {e cover path} (the passes below) complements ON ∪ DC by Shannon
      expansion and asks each pass's question of covers.
    - The {e dense path} serves every call of at most 14 variables (the DC_ret
      cone cap).  It builds {!Truthtab} tables of ON ∪ DC and of DC and asks
      the same questions word by word, over only the words a cube touches.
      Expand keeps a raise iff the cube's flipped half lies in ON ∪ DC: the
      cube already does, and a cube misses OFF iff it lies in ON ∪ DC, which
      is the cover path's test.  Irredundant drops a cube iff it lies in the
      running OR of DC and the cubes kept so far, joined with the OR of the
      cubes not yet visited (saved per cube in one backward sweep); that is
      the point set of the cover path's "rest plus DC".  Reduce takes the
      same scan's points of [c] outside the rest and folds their supercube
      from the OR of their in-word bits and the AND and OR of their word
      indices.  The supercube of a point set is the supercube of any cubes
      whose union it is, so it equals the fold over [sharp]'s cubes.
    Every query computes the same point set as on the cover path, so each
    greedy choice, and with it every cube, is the same.  Each dense call
    uses one scratch buffer for its scans. *)

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
(** Full loop until the (cube count, literal count) cost stops improving:
    on the dense path up to 14 variables, on the cover path above.  Counts
    every call in [logic.minimize.calls] and the dense ones in
    [logic.minimize.dense]. *)

module Internal : sig
  val by_cover : ?dc:Cover.t -> Cover.t -> Cover.t
  (** {!minimize} on the cover path at any width, for differential tests. *)
end
