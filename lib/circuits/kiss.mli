(** KISS2 state-transition-table reader/writer (the MCNC FSM benchmark
    format: [.i/.o/.p/.s/.r] headers and
    [input-cube current-state next-state output-bits] lines).

    Output bits may be ['-'] in KISS2; {!to_fsm} completes them to 0 (a
    legal implementation choice, noted in DESIGN.md). *)

type term = {
  input : Logic.Cube.t;
  current : string;
  next : string;
  output : string;  (** characters '0' | '1' | '-' *)
}

type t = {
  ninputs : int;
  noutputs : int;
  states : string list;  (** in order of first appearance *)
  reset : string;
  terms : term list;
}

val parse_string : string -> t
(** Raises [Failure] with a line-numbered message on malformed input. *)

val to_string : t -> string

val write_file : string -> t -> unit

val to_fsm : name:string -> t -> Fsm.t
(** States are numbered with the reset state first (so the synthesized
    network initializes into it). *)

val of_fsm : Fsm.t -> t

val to_network : name:string -> t -> Netlist.Network.t
(** [Fsm.to_network] of {!to_fsm}. *)
