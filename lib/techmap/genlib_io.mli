(** Reader/writer for the genlib gate-library text format:

    {v
    GATE nand2  2.0  O=!(a*b);   PIN * INV 1 999 1.0 0.0 1.0 0.0
    GATE aoi21  3.0  O=!(a*b+c); PIN * INV 1 999 1.4 0.0 1.4 0.0
    v}

    Expressions use [!] (negation), [*] (and), [+] (or), parentheses, and
    the constants [CONST0]/[CONST1].  Input pins are numbered
    alphabetically (the format carries no pin order).  Each gate's delay is the largest block delay over its
    PIN lines (the library model is load-independent).  Matching patterns
    are derived automatically from the parsed expression by NAND2/INV
    decomposition and are checked against the parsed function. *)

val parse_string : ?name:string -> string -> Genlib.t
(** The format carries no latch cell: the parsed library takes
    {!Genlib.mcnc_lite}'s latch area.  Raises [Failure] with a line-numbered
    message on malformed input, and on gates whose derived pattern does not
    compute the parsed function (an internal consistency failure). *)

val parse_file : string -> Genlib.t

val to_string : Genlib.t -> string
(** Gates are printed with factored expressions reconstructed from their
    covers; a parse/print round-trip preserves every gate's function, area
    and delay. *)
