(** Equivalence checking.

    Combinational checks compare networks as functions from (primary inputs +
    latch outputs) to (primary outputs + latch data inputs), matching signals
    by name.  {!seq_equal_random} samples input/output behaviour from the
    declared initial states; the sequential proof engine, and the entry that
    falls back to this sampler, is [Eqcheck.check_result]. *)

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

val tseitin :
  Sat_lite.t -> Netlist.Network.t ->
  leaf_var:(Netlist.Network.node -> int) -> int -> int
(** [tseitin solver net ~leaf_var] is an encoder: applied to a node id it
    Tseitin-encodes that node's combinational cone and returns the 0-based
    SAT variable of the node.  [leaf_var] supplies the variable of each
    input or latch.  The encoder memoizes every node it encodes, so cones
    shared between the roots it is applied to are encoded once. *)

val seq_equal_random :
  ?vectors:int -> ?length:int -> seed:int ->
  Netlist.Network.t -> Netlist.Network.t -> (string * bool) list list option
(** Random co-simulation from the binary initial states: [vectors] runs of
    [length] cycles each.  [None] when every run agrees; otherwise the
    per-cycle primary-input vectors of the first diverging run, ending at
    the cycle whose outputs differ.  Different output-name sets diverge in
    cycle 1 of run 0.  Raises [Failure] when a latch has no binary initial
    value.

    Runs are simulated word-parallel, one run per bit lane of a
    {!Simulate.compile}d program, [Sys.int_size] runs a batch.  The result is
    that of simulating the runs one at a time: the random bits are drawn in
    run, then cycle, then primary-input ([Network.inputs] of the first
    network) order; the answer is the lowest-index diverging run, cut at its
    first diverging cycle; and a batch stops the sampler only when one of its
    lanes diverged. *)
