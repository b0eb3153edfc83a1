(** The tree's one JSON codec: the daemon's newline-delimited protocol, the
    exporters of {!Export}, and every report the executables write to a
    file (eqcheck verdicts, verifier diagnostics, lint findings, BENCH
    documents) build a {!t} and print it here.

    Zero dependencies, by the same policy as the rest of the tree.  Both
    printers emit object fields in the order given, so documents built
    from the same data are byte-identical — the protocol's determinism
    contract rests on that.  Strings are written byte for byte except for
    the double quote, the backslash and control bytes, which are escaped;
    bytes from 0x80 up pass through, so UTF-8 text stays UTF-8.

    The parser is a plain recursive-descent over the byte string with a
    nesting-depth cap, so adversarial input fails with a structured error
    instead of a stack overflow.  Unicode escapes decode to UTF-8;
    numbers without [.], [e] or [E] parse as [Int], everything else as
    [Float]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** [Error msg] carries a byte-offset-annotated reason.  Trailing
    whitespace is accepted; trailing garbage is an error. *)

val to_string : t -> string
(** Compact single-line rendering; no trailing newline.  Object field
    order is preserved.  A [Float] prints as [%.1f] when integral and
    below 1e15, else as [%.6g]. *)

val layout : t -> string
(** The file rendering, for documents that are committed or diffed: an
    object puts one member per line, descending into members that are
    containers; an array puts one element per line, each element in the
    compact form of {!to_string}.  So a report (an array of records) is
    one line per record, and a metrics registry one line per instrument.
    No trailing newline. *)

val write_file : string -> t -> unit
(** [write_file path v] writes [layout v] and a newline to [path]. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on missing field or non-object. *)

val mem_str : string -> t -> string option
val mem_int : string -> t -> int option
(** [Int] directly; integral [Float]s convert. *)

val mem_bool : string -> t -> bool option
val mem_float : string -> t -> float option
(** [Float] or [Int].  Each [mem_* key j] is [None] when [member key j]
    is, or holds another kind of value. *)
