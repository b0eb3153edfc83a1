(** Deterministic random sequential circuit generators.

    Used by tests (behaviour-preservation properties need arbitrary circuits)
    and by the benchmark suite (synthetic stand-ins for MCNC/ISCAS'89
    netlists; see DESIGN.md for the substitution rationale). *)

type profile = {
  npi : int;
  npo : int;
  nlatch : int;
  ngates : int;
  max_fanin : int;  (** 2..4 *)
  feedback : bool;
      (** when true, latch data inputs are drawn from the whole circuit
          (FSM-style feedback); when false the circuit is a pipeline *)
  stem_bias : float;
      (** probability weight pushing latch outputs to acquire multiple
          fanouts (the resource the paper's technique exploits) *)
}

val default_profile : profile

val random_sequential : seed:int -> profile -> Netlist.Network.t
(** All latches get binary initial values.  Every output is driven; the
    network passes [Network.check].
    @raise Invalid_argument when [npi < 1], or when [stem_bias >= 1.0]
    and a gate could want more distinct fanins than there are latches
    (some [0 < nlatch < max 2 max_fanin] profiles), for which the draw
    would never end. *)
