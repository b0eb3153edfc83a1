(** Leiserson–Saxe minimum-period retiming.

    The retiming graph has one vertex per logic node plus a host vertex for
    the environment; edge weights count the latches between logic nodes.
    Feasibility of a target period uses the classical W/D-matrix difference
    constraints solved by Bellman–Ford; the minimum period is found by binary
    search over the distinct D values.

    A computed retiming vector is *realized* on the netlist as a sequence of
    atomic moves (so that initial states are computed move by move); this can
    fail when a backward move has no initial-state preimage — the same
    failure mode the paper reports for SIS retiming. *)

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
  ?current_period:float ->
  Netlist.Network.t -> model:Sta.model ->
  (Netlist.Network.t * float, failure) result
(** Retime to the minimum feasible period.  When realization fails at the
    optimum the next achievable candidate periods are tried before giving
    up, mirroring practical retiming tools.  Candidate periods are filtered
    against [current_period] when given (e.g. from an incremental timer, see
    {!Sta.Incremental}), saving the full analysis otherwise needed here. *)

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

  val min_period :
    graph -> int array array * float array array -> (float -> bool) ->
    (float, failure) result
  (** The smallest candidate period (a distinct D value) the predicate
      accepts, found by the same search {!min_feasible_period} uses. *)
end
