(** Mutable Boolean networks in the SIS style.

    A network is a graph of nodes: primary inputs, constants, SOP logic nodes
    and latches (edge-triggered flip-flops with an initial value).  Latches
    have exactly one fanin (the data input); combinational cycles are
    forbidden but cycles through latches are the norm (FSM feedback).

    All structural edits maintain fanout lists.  Node ids are stable for the
    lifetime of the network (deleted ids are never reused). *)

type init = I0 | I1 | Ix

type binding = {
  gate_name : string;
  gate_area : float;
  gate_delay : Delay.t;  (** ticks *)
}
(** Technology binding attached to a mapped logic node. *)

type kind =
  | Input
  | Const of bool
  | Logic of Logic.Cover.t
      (** SOP over the node's fanins; [Cover.nvars] equals the fanin count. *)
  | Latch of init

type node = private {
  id : int;
  mutable name : string;
  mutable kind : kind;
  mutable fanins : int array;
  mutable fanouts : int list;  (** consumer ids, with multiplicity *)
  mutable binding : binding option;
}

type t

val create : ?name:string -> unit -> t

val model_name : t -> string

val capacity : t -> int
(** One more than the largest node id ever allocated ([next_id]); a valid
    length for arrays indexed by node id.  Deleted ids stay counted. *)

(** {1 Revisions}

    Every mutation that can affect timing or structure (node creation and
    deletion, fanin/fanout rewiring, kind, cover, binding, latch init,
    primary-output changes and {!restore}) bumps a monotonic revision
    counter, so an observer that caches an analysis of the network can tell
    in O(1) whether it is still current.  Name changes do not count. *)

val revision : t -> int
(** Monotonic mutation counter; equal revisions imply an unchanged network. *)

val outputs_revision : t -> int
(** Bumped whenever the primary-output list changes (new output, retarget,
    fanout transfer remapping an output, {!restore}); lets observers cache
    per-output state and detect staleness in O(1). *)

(** {1 Construction} *)

val add_input : t -> string -> node
val add_const : t -> bool -> node

val fresh_name : t -> string -> string
(** [fresh_name net prefix]: [prefix] followed by the network's next name
    counter value, skipping names that a live node already holds. *)

val add_logic : t -> ?name:string -> Logic.Cover.t -> node list -> node
(** [add_logic net cover fanins]: [cover] is over the fanin positions.
    Without [name], the node gets a fresh [nK] name that no live node of the
    network holds. *)

val add_latch : t -> ?name:string -> init -> node -> node
(** Without [name], the latch gets a fresh [rK] name, as in {!add_logic}. *)

val set_output : t -> string -> node -> unit
(** Register a primary output driven by the node.  A node may drive several
    outputs; an output name may be set only once. *)

val retarget_output : t -> string -> node -> unit
(** Point an existing primary output at a different driver. *)

(** {1 Access} *)

val node : t -> int -> node
(** Raises [Invalid_argument] on deleted or unknown ids. *)

val node_opt : t -> int -> node option
val fanin_nodes : t -> node -> node list
val inputs : t -> node list
val outputs : t -> (string * node) list

val input_ids : t -> int list
(** Raw primary-input id list in creation order, without resolving the nodes;
    unlike {!inputs} this never raises, so integrity checkers can inspect a
    corrupted network. *)

val output_ids : t -> (string * int) list
(** Raw primary-output (name, driver id) pairs in creation order, without
    resolving the nodes; never raises. *)

val latches : t -> node list
val logic_nodes : t -> node list
val all_nodes : t -> node list
val find_by_name : t -> string -> node option

val is_latch : node -> bool
val is_logic : node -> bool
val is_input : node -> bool

val cover_of : node -> Logic.Cover.t
(** The SOP of a logic node; constants and inputs raise. *)

val latch_init : node -> init
val latch_data : t -> node -> node

val num_latches : t -> int
val num_logic : t -> int

val drives_output : t -> node -> bool

(** {1 Edit} *)

val set_cover : t -> node -> Logic.Cover.t -> unit
(** Replace a logic node's function (same fanins). *)

val set_function : t -> node -> Logic.Cover.t -> node list -> unit
(** Replace a logic node's function and fanins. *)

val set_name : t -> node -> string -> unit

val set_name_of_model : t -> string -> unit

val become_latch : t -> node -> init -> node -> unit
(** Convert a logic node in place into a latch with the given init and data
    fanin (used by the BLIF reader to resolve forward references). *)

val set_binding : t -> node -> binding option -> unit
val set_latch_init : t -> node -> init -> unit

val replace_fanin : t -> node -> old_fanin:node -> new_fanin:node -> unit
(** Rewire every occurrence of [old_fanin] in [node]'s fanin array. *)

val transfer_fanouts : t -> from:node -> to_:node -> unit
(** Every consumer of [from] (including primary outputs) now reads [to_]. *)

val delete : t -> node -> unit
(** The node must have no fanouts and drive no output. *)

val duplicate_for : t -> node -> consumer:node -> node
(** Clone a logic node so that [consumer] reads the clone instead; the clone
    shares the fanins of the original.  Returns the clone. *)

(** {1 Analysis} *)

val topo_combinational : t -> node list
(** Logic nodes in topological order, treating latches, inputs and constants
    as sources.  Raises [Failure] if a combinational cycle exists.

    The order is cached: allocating fresh nodes appends to the cache, while
    rewiring existing structure ([set_function], [replace_fanin] on a logic
    node, [become_latch], [transfer_fanouts], deleting a logic node)
    invalidates it, so repeated calls between structural edits are cheap.
    {!check} always re-derives the order from scratch. *)

val transitive_fanin_cone : t -> node -> node list
(** Logic nodes in the cone of the node, up to latches/inputs/constants,
    in topological order (inputs first); includes the node itself if logic. *)

val cone_leaves : t -> node -> node list
(** The latch/input/constant frontier of the node's combinational cone. *)

val eval_comb : t -> (int -> bool) -> int -> bool
(** [eval_comb net leaf_value id] evaluates node [id] combinationally, with
    latch outputs, inputs and constants supplied by [leaf_value] (constants
    may also be supplied as their value). *)

val check : t -> unit
(** Assert structural invariants (fanin/fanout symmetry, cover widths, latch
    arity, acyclicity); for tests and debugging. *)

val copy : t -> t
(** Deep copy with identical node ids. *)

val restore : t -> t -> unit
(** [restore net snapshot] reverts [net] in place to the state captured by an
    earlier {!copy}.  Node handles obtained before the snapshot are stale
    afterwards; re-fetch them by id.  Bumps both {!revision} and
    {!outputs_revision}. *)

(** {1 Cleanup} *)

val sweep : t -> unit
(** Propagate constants, collapse single-input identity nodes (buffers) into
    their sources, and remove nodes that reach no primary output. *)

(** {1 Statistics} *)

val lit_count : t -> int
val area : t -> latch_area:float -> default_gate_area:float -> float

(** {1 Unsafe test hooks}

    Deliberate corruption of the representation, bypassing both the
    structural invariants and the revision counter.  Exists solely so that
    verifier and audit tests can seed defects a correct editing API can
    never produce; never call these from product code. *)
module Unsafe : sig
  val drop_fanout : t -> id:int -> consumer:int -> unit
  (** Remove one occurrence of [consumer] from node [id]'s fanout list
      without touching the consumer's fanins or the revision. *)

  val skew_cover : t -> id:int -> unit
  (** Widen the logic node's cover by one variable without adding a fanin. *)

  val redirect_fanin : t -> id:int -> slot:int -> target:int -> unit
  (** Overwrite one fanin slot without updating any fanout list. *)

  val set_latch_init_unjournaled : t -> id:int -> init -> unit
  (** Change a latch's initial value without bumping the revision. *)
end

val stats_string : t -> string

val pp : Format.formatter -> t -> unit
