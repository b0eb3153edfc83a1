(** Two-valued sequential simulation of networks. *)

type state = (int * bool) list
(** Latch node id -> current value. *)

val binary_initial_state : Netlist.Network.t -> state
(** Requires every latch to have a binary initial value; raises [Failure]
    otherwise. *)

(** {1 Compiled two-valued evaluation}

    A network compiles once into a flat program that evaluates over native
    [int] words: bit [j] of every word is an independent simulation lane, so
    one pass over the program simulates up to [Sys.int_size] (63) input
    assignments at once.  This is the only two-valued evaluator: {!eval_all}
    (and so {!step} and {!run}) runs lane 0 of it, and
    [Equiv.seq_equal_random] runs whole words of random runs. *)

type program = private {
  capacity : int;  (** length of a value array: one word per node id *)
  inputs : (string * int) array;  (** name, node id; [Network.inputs] order *)
  latches : (int * int) array;
      (** latch id, data-driver id; [Network.latches] order *)
  outputs : (string * int) array;
      (** name, driver id; [Network.outputs] order *)
  consts : (int * int) array;  (** constant id and its word (0 or -1) *)
  order : int array;  (** logic node ids in topological order *)
  covers : cube array array;  (** [covers.(k)] is the SOP of [order.(k)] *)
}

and cube = private { pos : int array; neg : int array }
(** A product term: the node ids read as positive and as negative
    literals. *)

val compile : Netlist.Network.t -> program
(** Raises [Failure] on a combinational cycle. *)

val eval_words : program -> int array -> unit
(** [eval_words p values] fills the constant and logic-node words of
    [values] (length [p.capacity], indexed by node id) from the input and
    latch words the caller has stored there.  Allocation-free. *)

val eval_all : Netlist.Network.t -> pi:(string -> bool) -> state:state -> bool array
(** Combinational values of every node id for one cycle (latch positions hold
    the current state): lane 0 of {!compile} and {!eval_words}.  Raises
    [Failure] when [state] has no entry for a latch. *)

val step :
  Netlist.Network.t -> pi:(string -> bool) -> state:state -> state * (string * bool) list
(** One clock cycle: returns the next state and the primary output values. *)

val run :
  Netlist.Network.t ->
  state ->
  (string -> bool) list ->
  state * (string * bool) list list
(** Apply a sequence of input vectors; returns final state and per-cycle
    outputs. *)
