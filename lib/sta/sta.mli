(** Static timing analysis over a {!Netlist.Network.t}.

    Timing start points are primary inputs, constants and latch outputs;
    end points are primary outputs and latch data inputs.  The clock period
    of a sequential circuit is the maximum end-point arrival time. *)

type model = Netlist.Network.node -> float
(** Delay contributed by one logic node (sources and latches contribute 0). *)

val unit_delay : model
(** Every logic node costs 1.0. *)

val mapped_delay : ?default:float -> unit -> model
(** Delay from the technology binding; unbound logic nodes cost [default]
    (1.0). *)

type timing = {
  arrival : float array;       (** indexed by node id; -infinity if unused *)
  period : float;              (** max end-point arrival *)
  critical_end : int;          (** node id of the worst end point *)
}

val analyze : Netlist.Network.t -> model -> timing

val clock_period : Netlist.Network.t -> model -> float

val critical_path : Netlist.Network.t -> model -> Netlist.Network.node list
(** Logic nodes of one worst path, ordered from (closest to) inputs to the
    path's end point.  Empty when the network has no logic. *)

val slack : Netlist.Network.t -> model -> required:float -> float array
(** Per-node slack against a required time at every end point. *)

(** Persistent incremental timer.

    A handle caches arrival times, required times and the endpoint maximum
    for one network, and keeps them consistent with the network's change
    journal ({!Netlist.Network.journal_since}): a query after a local edit
    re-propagates only the affected cone — forward through fanouts for
    arrivals, backward through fanins for required times — instead of paying
    a full O(V+E) {!analyze}.  All queries are oracle-equivalent to running
    the full analysis from scratch (bit-exact, including tie-breaking).

    One handle should be shared by every consumer of a network's timing; it
    survives arbitrary edits, including {!Netlist.Network.restore}, falling
    back to a full resync when the journal has been compacted. *)
module Incremental : sig
  type t

  val create : Netlist.Network.t -> model -> t
  (** Runs one full analysis to seed the caches. *)

  val network : t -> Netlist.Network.t

  val period : t -> float
  val timing : t -> timing
  (** The arrival array is the handle's live buffer (length >= node
      capacity); do not mutate, and do not use across further edits. *)

  val critical_path : t -> Netlist.Network.node list
  val arrival : t -> Netlist.Network.node -> float
  val slack : t -> required:float -> Netlist.Network.node -> float

  val slacks : t -> required:float -> float array
  (** Same contents as {!Sta.slack} on the current network. *)

  type stats = {
    full_syncs : int;         (** from-scratch resynchronizations *)
    incremental_syncs : int;  (** journal-driven partial updates *)
    nodes_recomputed : int;   (** node re-evaluations across all syncs *)
  }

  val stats : t -> stats
end
