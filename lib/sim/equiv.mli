(** Equivalence checking.

    Combinational checks compare networks as functions from (primary inputs +
    latch outputs) to (primary outputs + latch data inputs), matching signals
    by name.  Sequential checks compare input/output behaviour from the
    declared initial states. *)

exception Too_large of string

val leaf_names : Netlist.Network.t -> string list
(** Sorted names of the combinational leaves: primary inputs and latch
    outputs. *)

val endpoint_names : Netlist.Network.t -> string list
(** Sorted names of the combinational endpoints: primary outputs and latch
    data inputs (the latter prefixed ["next:"]). *)

val eval_endpoints :
  Netlist.Network.t -> (string -> bool) -> (string * bool) list
(** Evaluate every endpoint under a leaf assignment given by name. *)

val comb_equal_exhaustive : Netlist.Network.t -> Netlist.Network.t -> bool
(** Exhaustive over all leaf assignments; requires matching input and latch
    names and at most 16 leaves. *)

val comb_equal_sat : ?conflict_limit:int -> Netlist.Network.t -> Netlist.Network.t -> bool
(** Miter + SAT.  Raises {!Too_large} when the budget runs out. *)

val tseitin :
  Sat_lite.t -> Netlist.Network.t ->
  leaf_var:(Netlist.Network.node -> int) -> int -> int
(** [tseitin solver net ~leaf_var] is an encoder: applied to a node id it
    Tseitin-encodes that node's combinational cone and returns the 0-based
    SAT variable of the node.  [leaf_var] supplies the variable of each
    input or latch.  The encoder memoizes every node it encodes, so cones
    shared between the roots it is applied to are encoded once. *)

val seq_equal_bdd :
  ?max_latches:int -> ?delay:int -> Netlist.Network.t -> Netlist.Network.t -> bool
(** Product-machine reachability from the initial-state pair; verifies that
    every reachable state pair produces equal outputs under every input.
    X initial values range over both binary values.  Raises {!Too_large}
    beyond [max_latches] (default 28) total latches.

    [delay] (default 0) checks {e delayed replacement} in the sense of
    Singhal et al. [15], as used by the paper's Section II: outputs are
    unconstrained during the first [delay] cycles; from every state pair
    reachable in exactly [delay] steps onward the machines must agree. *)

val seq_equal_delayed :
  ?max_latches:int -> k:int -> Netlist.Network.t -> Netlist.Network.t -> bool
(** [seq_equal_bdd ~delay:k]. *)

val seq_equal_random :
  ?vectors:int -> ?length:int -> seed:int ->
  Netlist.Network.t -> Netlist.Network.t -> bool
(** Random co-simulation from the binary initial states: [vectors] runs of
    [length] cycles each. *)

val seq_equal :
  ?seed:int -> Netlist.Network.t -> Netlist.Network.t -> bool
(** BDD check when small enough, random co-simulation otherwise.  Raises
    {!Too_large}, naming the latch, when the pair is past the BDD cap and
    some latch has an unknown initial value (co-simulation needs binary
    initial states). *)
