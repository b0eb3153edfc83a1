(** The symbolic reachability engine, and the unreachable-state external
    don't-cares of the paper's baseline [23][24][25][26].

    A {!machine} is the BDD transition relation of one or more networks
    stepped together on shared primary inputs.  {!explore} runs an image
    fixpoint from an initial set and turns the first ring meeting a [bad]
    set into an input trace.  It has three callers, each with its own caps
    and verdicts: [Eqcheck.seq_check] (product machine of two networks),
    [Eqcheck.dcret_check] (DC_ret class invariant, Theorem 1) and
    {!unreachable_states}.  Every operation is charged to the machine's
    scope, and {!Too_large} is raised past its node budget. *)

exception Too_large of string

val check_budget : Bdd.man -> max_nodes:int -> unit
(** Raises [Too_large "bdd node budget exhausted"] once the scope has consed
    more than [max_nodes] nodes. *)

val cone_values :
  Bdd.man -> budget:(unit -> unit) ->
  leaf:(Netlist.Network.node -> Bdd.t option) -> ?roots:int list ->
  Netlist.Network.t -> (int, Bdd.t) Hashtbl.t
(** Node id -> BDD: inputs and latches get [leaf] (no entry for [None]),
    constants their value, and each logic node in the fanin of [roots]
    (every one without [roots]) {!Bdd.of_cover} over its fanins, in
    topological order, [budget] running after each. *)

type component = {
  net : Netlist.Network.t;
  latches : Netlist.Network.node list;  (** its state bits, in order *)
  ps_var : (int, int) Hashtbl.t;  (** latch id -> present-state variable *)
  values : (int, Bdd.t) Hashtbl.t;  (** the needed cones *)
}

type machine = {
  man : Bdd.man;
  max_nodes : int;
  inputs : string list;  (** input variable [i] is the [i]-th name *)
  nstate : int;  (** state bits of all parts *)
  parts : component array;
  transition : Bdd.t;  (** AND of [ns <-> next-state] over the state bits *)
  init : Bdd.t;  (** declared initial values; [Ix] unconstrained *)
}

val machine :
  outputs:bool -> max_nodes:int -> inputs:string list ->
  (Netlist.Network.t * Netlist.Network.node list) list -> machine
(** The machine of the parts (a network and its state-bit latches) in a
    fresh scope.  Variables: inputs in the given order (matched by name),
    then each part's state bits, then next-state variables [nstate] above
    their present state.  Only the cones of the state bits' data inputs are
    built, and the primary outputs' when [outputs]; no other latch may feed
    them. *)

type trace = {
  steps : (string * bool) list list;  (** input vector of every step *)
  start : (int * bool) list;  (** present-state assignment at the start *)
  witness : (int * bool) list;  (** inputs and state in the bad set *)
}

type outcome = Reached of Bdd.t | Hit of trace

val explore : machine -> init:Bdd.t -> bad:Bdd.t Lazy.t -> outcome
(** Image fixpoint from [init]: {!Reached} with the reachable set, or
    {!Hit} at the first ring meeting [bad] (over inputs and present state),
    walked back through the older rings by [any_sat] on [transition AND
    ns-cube AND ring].  [bad] is forced after the first budget check. *)

val input_vector : machine -> (int * bool) list -> (string * bool) list
(** The inputs of an assignment, by name. *)

val latch_value :
  component -> (int * bool) list -> Netlist.Network.node -> bool option
(** A state bit's value in an assignment; [None] for other latches. *)

(** {2 Unreachable-state don't-cares} *)

type result = {
  latch_order : Netlist.Network.node list;  (** variable order used *)
  reachable : Logic.Cover.t;   (** over latch variables in [latch_order] *)
  unreachable : Logic.Cover.t;
  num_reachable : float;
}

val unreachable_states : ?max_latches:int -> Netlist.Network.t -> result
(** Reachable states from the declared initial values ([Ix] ranges over
    both).  Raises {!Too_large} past [max_latches] (default 24) or a
    2M-node budget, letting flows fall back. *)

val simplify_with_unreachable : Netlist.Network.t -> int
(** Simplify every latch data cone and primary-output cone of at most 14
    leaves with the unreachable-state DC set, restricted to each cone's
    latch leaves.  Returns the number of cones rebuilt; 0 when
    {!unreachable_states} raises. *)
