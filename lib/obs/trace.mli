(** Structured tracing: hierarchical spans with wall-clock durations, GC
    deltas and typed attributes.

    The tracer is an ambient, process-wide sink so instrumentation points do
    not need a handle threaded through every call chain.  When disabled (the
    default) the fast path of {!span} is one atomic load and a branch — no
    allocation, no clock read — so permanently instrumented hot paths cost
    nothing in production runs.

    Spans record the worker domain that produced them ({!span-type-span}
    [track] is the domain id), so a [--jobs N] suite run renders as one
    timeline track per domain in the Chrome exporter
    ({!Export.chrome_json}).  Recording is multi-domain safe: the
    (pass-granularity) event buffer is a {!Locked.t}, and per-domain
    nesting depth lives in domain-local storage. *)

type attr =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool

type span = {
  name : string;
  cat : string;          (** Chrome trace category; defaults to ["span"] *)
  track : int;           (** id of the domain that ran the span *)
  depth : int;           (** nesting depth on that track at entry *)
  start_ns : int64;
  dur_ns : int64;
  minor_words : float;
      (** words the span's own domain allocated while it ran, minor heap *)
  major_words : float;
      (** the same for the major heap (promotions and direct major
          allocations); other domains' allocation is not counted *)
  args : (string * attr) list;
}

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Drop every recorded span; the enabled state is unchanged. *)

val span : ?cat:string -> ?args:(string * attr) list ->
  ?end_args:(unit -> (string * attr) list) -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] and, when tracing is enabled, records a complete
    span around it (duration, GC delta, domain track, nesting depth).
    [end_args ()] is appended to [args] when the span closes, for figures
    only known then.  Exceptions propagate; the span is still recorded.
    When disabled this is [f ()] after one atomic load. *)

val depth : unit -> int
(** Current nesting depth of the calling domain (0 outside any span). *)

val spans : unit -> span list
(** Everything recorded so far, sorted by (track, start, depth). *)

val set_clock : (unit -> int64) option -> unit
(** Override the time source (nanoseconds); [None] restores the default
    wall clock.  For deterministic exporter tests. *)

(** {1 Span streaming}

    In addition to (or instead of) the in-memory buffer, completed spans
    can stream to registered sinks as they finish.  The resynthesis daemon
    uses this to flush spans incrementally to a file or a subscribed
    client, so a fleet-scale run never has to hold its whole trace in
    memory.  Sinks are invoked serially under an internal lock, on the
    domain that completed the span; a sink must be fast and must never
    call back into this module.  A sink that raises releases the lock:
    the exception leaves the span that was completing, and the tracer
    stays usable on every domain. *)

type sink = {
  on_span : span -> unit;   (** one completed span *)
  on_flush : unit -> unit;  (** flush buffered output (shutdown, export) *)
}

val add_sink : sink -> int
(** Register a sink; returns a token for {!remove_sink}.  Sinks only fire
    while tracing is {!enabled}. *)

val remove_sink : int -> unit

val flush_sinks : unit -> unit
(** Run every registered sink's [on_flush]. *)

val set_buffering : bool -> unit
(** [set_buffering false] stops accumulating spans in the in-memory buffer
    ({!spans} returns only what was recorded while buffering); sinks still
    receive every span.  Default [true]. *)
