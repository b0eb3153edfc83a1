(** Constrained min-area retiming: greedy register-count reduction subject to
    a clock-period bound, used as the paper's post-processing step.

    Three move kinds are tried to a fixpoint, each kept only if the period
    stays within budget:
    - backward merges of sibling latches (same data input, same initial
      value) — the inverse of retiming across a fanout stem;
    - forward moves across nodes whose fanin latches would all die;
    - backward moves across nodes with more latched outputs than fanins. *)

val merge_all_siblings :
  ?classes:int list list -> Netlist.Network.t -> int
(** Merge every class of sibling latches (same data input, same initial
    value); the building block of the backward fanout-stem move.  Returns
    registers eliminated.  [classes] supplies the DC_ret register-equivalence
    classes: sibling groups are partitioned so no merge straddles two
    distinct classes (see {!Verify.merge_legal}); the default [[]] keeps the
    unpartitioned behavior. *)

val minimize_registers :
  ?classes:int list list ->
  Netlist.Network.t -> model:Sta.model -> max_period:Netlist.Delay.t -> int
(** Mutates the network; returns the number of registers eliminated.  Each
    candidate move is kept only if {!Sta.clock_period} stays within
    [max_period].  [classes] constrains sibling merges as in
    {!merge_all_siblings}. *)
