(** Technology mapping by tree covering on a NAND2/INV subject graph.

    The classical SIS flow: decompose every logic node into 2-input NANDs and
    inverters (using algebraic factoring, with balanced trees for delay),
    break the subject DAG into trees at multi-fanout points, and cover each
    tree by library patterns with dynamic programming. *)

val subject_graph : Netlist.Network.t -> Netlist.Network.t
(** Fresh network in which every logic node is a 2-input NAND or an inverter
    (structurally hashed); IO, latches and initial values are preserved. *)

val map : Netlist.Network.t -> lib:Genlib.t -> Netlist.Network.t
(** Full mapping: subject graph + min-delay tree covering (each node takes the
    match with the earliest arrival, ties broken toward fewer gates).  Every
    logic node of the result carries a {!Netlist.Network.binding}. *)

val mapped_area : Netlist.Network.t -> lib:Genlib.t -> float
(** Total area: bound gates plus latches (unbound logic counts as NAND2). *)

val publish_stats : unit -> unit
(** Export aggregated mapping statistics as [techmap.*] gauges in the obs
    metrics registry (total bound cells, total mapped area).  Per-cell
    instantiation counts ([techmap.cell.<gate>]) and map/remap outcome
    counters ([techmap.maps], [techmap.unmappable]) are registered directly
    as counters and need no publishing step.  Call before [--metrics-json] export. *)
