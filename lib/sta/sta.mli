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
