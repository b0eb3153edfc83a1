(** Retiming-induced register-equivalence classes.

    Splitting a register across its fanout stem produces copies constrained
    to be equal at all times of valid operation (paper, Section II).  This
    module tracks those classes (a union-find over latch node ids) and turns
    them into don't-care covers ([ri XOR rj] terms, the paper's DC_ret) over
    a caller-supplied variable numbering. *)

type t

val create : unit -> t

val declare_equal : t -> Netlist.Network.node -> Netlist.Network.node -> unit
(** Both nodes must be latches. *)

val declare_class : t -> Netlist.Network.node list -> unit

val are_equal : t -> Netlist.Network.node -> Netlist.Network.node -> bool

val classes : t -> int list list
(** Non-trivial classes as lists of latch ids. *)

val dc_cover : t -> nvars:int -> var_of_latch:(int -> int option) -> Logic.Cover.t
(** The DC_ret cover: for every pair of equivalent latches that both map to a
    variable, the two cubes of [ri XOR rj].  Latches without a variable
    (outside the cone of interest) contribute nothing. *)

val drop_dead : t -> alive:(int -> bool) -> unit
(** Forget latches that no longer exist in the network. *)
