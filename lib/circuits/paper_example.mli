(** The Section III walkthrough circuit (Figs. 4-6 of the paper),
    reconstructed: an optimized sequential circuit whose critical path is 3
    two-input gates.  Conventional min-delay retiming reaches 2 gate delays;
    the paper's resynthesis — gate duplication, fanout-stem retiming of the
    state registers, forward retiming across the path, and DC_ret
    simplification — reaches a single gate delay.

    The published equations are not recoverable from the archival scan, so
    the circuit here is engineered to exercise the identical mechanism: a
    multi-fanout gate on the critical path (forcing duplication), state
    registers with multiple fanouts (the stems to split), feedback through
    the state registers (so the collapsed next-state cone sees two members
    of an equivalence class), and an absorption-style simplification enabled
    by the retiming-induced don't-cares. *)

val circuit : unit -> Netlist.Network.t
(** Unit-delay view; 3 registers, critical path of 3 gates. *)

val expected_original_delay : Netlist.Delay.t
(** 3 delay units *)

val expected_retimed_delay : Netlist.Delay.t
(** 2 delay units *)

val expected_resynthesized_delay : Netlist.Delay.t
(** 1 delay unit *)
