(** Gate library in the genlib spirit: each gate has an area, a pin-to-pin
    delay (load-independent), a function as an SOP over its inputs, and a
    NAND2/INV pattern tree used for matching.

    Pattern leaves are numbered; a leaf number may repeat (XOR-class gates),
    in which case a match must bind the repeats to the same subject node. *)

type pattern =
  | Leaf of int
  | Inv of pattern
  | Nand of pattern * pattern

type gate = {
  gate_name : string;
  area : float;
  delay : float;
  ninputs : int;
  cover : Logic.Cover.t;  (** over the [ninputs] leaf variables *)
  pattern : pattern;
}

type t = {
  lib_name : string;
  gates : gate list;
  latch_area : float;
}

val pattern_cover : int -> pattern -> Logic.Cover.t
(** Function computed by a pattern over [n] leaf variables (for checks). *)

val mcnc_lite : t
(** The built-in library: INV, BUF, NAND2-4, NOR2-3, AND2, OR2, AOI21,
    OAI21, XOR2, XNOR2 plus a D flip-flop.  Area and delay values follow the
    relative ordering of the MCNC library. *)

val find : t -> string -> gate
