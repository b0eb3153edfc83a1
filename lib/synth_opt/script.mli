(** Combinational optimization pipeline standing in for SIS [script.delay]
    (see DESIGN.md for the substitution rationale).

    The pipeline: sweep, per-node espresso-lite simplification, literal-saving
    eliminations, then algebraic decomposition with balanced trees and
    delay-oriented technology mapping (both inside {!Techmap.Mapper.map}). *)

val simplify_nodes : Netlist.Network.t -> int
(** Minimize every logic node's SOP in place (no don't-cares).  Returns the
    number of nodes improved. *)

val collapse_into :
  Netlist.Network.t -> producer:Netlist.Network.node -> consumer:Netlist.Network.node -> unit
(** Substitute a logic node's function into one consumer (SIS collapse). *)

val eliminate : Netlist.Network.t -> int
(** Collapse nodes whose elimination does not increase the literal count and
    keeps every consumer's support at 12 signals or fewer.  Returns nodes
    eliminated. *)

val script_delay : Netlist.Network.t -> lib:Techmap.Genlib.t -> Netlist.Network.t
(** Full delay script: returns a fresh mapped network (input untouched). *)

val unmapped_optimize : Netlist.Network.t -> unit
(** The technology-independent part only (sweep, simplify, eliminate),
    mutating the network. *)
