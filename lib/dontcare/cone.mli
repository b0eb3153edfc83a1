(** Collapsing combinational cones to SOPs over their leaves, and rebuilding
    simplified nodes.  This is the workhorse behind "simplify the next-state
    logic of the retimed register using DC_ret" (paper, Algorithm 1) and
    behind the baseline's external-don't-care simplification. *)

type collapsed = {
  root : Netlist.Network.node;
  leaves : Netlist.Network.node array;  (** leaf order = variable order *)
  cover : Logic.Cover.t;                (** root function over the leaves *)
}

exception Cone_too_wide of int

val collapse :
  ?max_leaves:int -> Netlist.Network.t -> Netlist.Network.node -> collapsed
(** Collapse the combinational cone of a logic node down to its latch, input
    and constant leaves (constants are folded, not treated as leaves).
    Raises {!Cone_too_wide} beyond [max_leaves] (default 14). *)

val rebuild :
  Netlist.Network.t -> collapsed -> Logic.Cover.t -> unit
(** Replace the root node's function by a new cover over the collapsed
    leaves, then sweep the network (the old cone interior dies if unused). *)

val simplify_root :
  dc_for:(leaves:Netlist.Network.node array -> Logic.Cover.t) ->
  Netlist.Network.t -> Netlist.Network.node -> bool
(** Collapse, minimize with the don't-care cover supplied by [dc_for] (over
    the same leaf numbering), and rebuild if the result is cheaper (fewer
    literals) than the collapsed cover.  Returns whether a rebuild happened.
    Cones wider than 14 leaves are left untouched. *)
