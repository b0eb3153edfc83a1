(** Static timing analysis over a {!Netlist.Network.t}.

    Timing start points are primary inputs, constants and latch outputs;
    end points are primary outputs and latch data inputs.  The clock period
    of a sequential circuit is the maximum end-point arrival time.  Times
    are {!Netlist.Delay} ticks, so arrival sums are exact. *)

type model = Netlist.Network.node -> Netlist.Delay.t
(** Delay contributed by one logic node (sources and latches contribute 0). *)

val unit_delay : model
(** Every logic node costs {!Netlist.Delay.unit}. *)

val mapped_delay : model
(** Delay from the technology binding; unbound logic nodes cost
    {!Netlist.Delay.unit}. *)

type timing = {
  arrival : Netlist.Delay.t array;
      (** indexed by node id; [min_int] if unused *)
  period : Netlist.Delay.t;  (** max end-point arrival *)
  critical_end : int;        (** node id of the worst end point *)
}

val analyze : Netlist.Network.t -> model -> timing

val clock_period : Netlist.Network.t -> model -> Netlist.Delay.t

val critical_path : Netlist.Network.t -> model -> Netlist.Network.node list
(** Logic nodes of one worst path, ordered from (closest to) inputs to the
    path's end point.  Empty when the network has no logic. *)

val slack :
  Netlist.Network.t -> model -> required:Netlist.Delay.t -> Netlist.Delay.t array
(** Per-node slack against a required time at every end point; [max_int]
    where no end point is reached. *)
