(** Leiserson–Saxe minimum-period retiming.

    The retiming graph has one vertex per logic node plus a host vertex for
    the environment; edge weights count the latches between logic nodes.
    Feasibility of a target period is decided by Bellman–Ford over the
    classical difference constraints: the edge constraints and, for every
    pair with D(u,v) above the target, the period constraint
    r(u) - r(v) <= W(u,v) - 1, read straight off the W/D rows on each
    relaxation round (no constraint list is built).  The minimum period is
    found by binary search over the distinct D values.  W/D's diagonal holds
    the lightest cycle through each vertex, not Leiserson–Saxe's trivial
    path D(v,v) = d(v), so every entry point also rejects a target below a
    gate's own delay.

    {!retime_min_period} first looks for a cycle certificate on the sparse
    edge list, before any W/D matrix is built.  A cycle C with delay d(C)
    and w(C) registers bounds every retiming's period below by d(C)/w(C)
    (a host-to-host path with w registers counts w+1).  One longest-path
    Bellman–Ford run finds a cycle whose ratio reaches the current period
    when there is one; the cycle alone then proves that no retiming beats
    the current period, and the answer is [Infeasible] without W/D.

    A computed retiming vector is *realized* on the netlist as a sequence of
    atomic moves (so that initial states are computed move by move); this can
    fail when a backward move has no initial-state preimage — the same
    failure mode the paper reports for SIS retiming.  {!retime_min_period}
    then walks up the candidate periods.  The search and the walk probe each
    candidate at most once, and a step whose labelling equals the one that
    just failed is skipped without copying the network: realization is a
    function of the network and the labelling.

    Counters: [retiming.probes] (feasibility probes),
    [retiming.realizations] (network copies realized),
    [retiming.realizations_skipped] (walk steps that repeated a failed
    labelling) and [retiming.cycle_certificates] ({!retime_min_period}
    calls decided [Infeasible] by a cycle, without W/D). *)

type failure =
  | Too_large of int
      (** vertex count beyond the effort cap of 1200 (the W/D matrices are
          dense) *)
  | Infeasible
  | Init_state of string
      (** a backward move could not compute an initial state *)
  | Stuck of string  (** move sequencing deadlocked *)

val failure_message : failure -> string

val min_feasible_period : Netlist.Network.t -> Sta.model -> (float, failure) result
(** Best period any retiming can achieve (graph-level; ignores initial-state
    realizability).  Computed with the W/D-matrix difference constraints. *)

val retime :
  Netlist.Network.t -> model:Sta.model -> target:float ->
  (Netlist.Network.t, failure) result
(** Retime a copy of the network to meet [target].  The input network is not
    modified. *)

val retime_min_period :
  Netlist.Network.t -> model:Sta.model ->
  (Netlist.Network.t * float, failure) result
(** Retime to the minimum feasible period.  When realization fails at the
    optimum the next achievable candidate periods are tried before giving
    up, mirroring practical retiming tools.  Only candidate periods below
    the network's current {!Sta.clock_period} are tried. *)

(**/**)

(** The retiming graph and the candidate-period search, for independent
    feasibility checks in the test suite. *)
module Internal : sig
  type graph = {
    nv : int;                        (** vertex 0 is the host *)
    delay : float array;
    edges : (int * int * int) list;  (** (u, v, register count) *)
    node_of_vertex : int array;
  }

  val build_graph : Netlist.Network.t -> Sta.model -> graph

  val critical_cycle : graph -> float -> int list option
  (** [critical_cycle g p]: a cycle [v0; ...; vk] (edges [vi -> vi+1] and
      [vk -> v0]) whose ratio d(C)/w'(C) exceeds (1 - 1e-12) [p], or None
      when Bellman–Ford finds none.  d(C) sums the vertex delays; w'(C)
      counts the registers of the lightest edge between consecutive
      vertices, plus one per edge into the host. *)

  val wd_matrices : graph -> int array array * float array array
  (** (W, D): D includes both endpoints' delays and is [neg_infinity]
      exactly where W has no path. *)

  val feasible_retiming :
    graph -> int array array * float array array -> float -> int array option
  (** The labelling (host at 0) meeting the target period's W/D
      constraints, or None.  Gate delays above the target are not
      checked. *)

  val candidate_periods : int array array * float array array -> float list
  (** The distinct finite D values, ascending. *)

  val realize :
    Netlist.Network.t -> graph -> int array -> (unit, failure) result
  (** Apply a labelling to the network in place by atomic moves. *)

  val min_period :
    int array array * float array array -> (float -> bool) ->
    (float, failure) result
  (** The smallest candidate period (a distinct D value) the predicate
      accepts, found by the same search {!min_feasible_period} uses. *)
end
