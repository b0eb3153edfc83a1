(** BLIF reader and writer for the subset used by the tool: [.model],
    [.inputs], [.outputs], [.names] with cover lines, [.latch] (with optional
    initial value), [.end].  Comments ([#]) and line continuations ([\])
    are handled. *)

val parse_string : string -> Network.t
(** Raises [Failure] with a line-numbered message on malformed input, and
    with ["blif: <name> used but never defined"] for a fanin that is no
    input, latch or [.names] output, ["blif: undriven output <name>"], or
    ["blif: combinational cycle through <names>"]. *)

val parse_file : string -> Network.t

val to_string : Network.t -> string

val write_file : string -> Network.t -> unit
