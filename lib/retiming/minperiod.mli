(** Leiserson–Saxe minimum-period retiming.

    The retiming graph has one vertex per logic node plus a host vertex for
    the environment; edge weights count the latches between logic nodes.
    Feasibility of a target period is decided by Bellman–Ford over the
    classical difference constraints: the edge constraints and, for every
    pair with D(u,v) above the target, the period constraint
    r(u) - r(v) <= W(u,v) - 1, read straight off the W/D rows on each
    relaxation round (no constraint list is built).  The minimum period is
    found by binary search over the distinct D values.

    A computed retiming vector is *realized* on the netlist as a sequence of
    atomic moves (so that initial states are computed move by move); this can
    fail when a backward move has no initial-state preimage — the same
    failure mode the paper reports for SIS retiming.  {!retime_min_period}
    then walks up the candidate periods.  The search and the walk probe each
    candidate at most once, and a step whose labelling equals the one that
    just failed is skipped without copying the network: realization is a
    function of the network and the labelling.

    Counters: [retiming.probes] (feasibility probes),
    [retiming.realizations] (network copies realized) and
    [retiming.realizations_skipped] (walk steps that repeated a failed
    labelling). *)

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

  val wd_matrices : graph -> int array array * float array array
  (** (W, D): D includes both endpoints' delays and is [neg_infinity]
      exactly where W has no path. *)

  val feasible_retiming :
    graph -> int array array * float array array -> float -> int array option
  (** The labelling (host at 0) meeting the target period, or None. *)

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
