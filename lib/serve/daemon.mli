(** The wire: a single-process event loop around {!Engine}.

    One [Unix.select] loop on the calling domain accepts connections and
    speaks the newline-delimited JSON protocol; accepted jobs are forked
    onto the ambient {!Core.Parallel} pool, so {!run} wraps the loop in
    [Core.Parallel.run ~jobs] and the event loop itself is worker 0 (it
    never joins, so the other workers do all flow work; with [jobs = 1]
    each job runs inline at its submit, which keeps the protocol exact but
    serializes the daemon).

    Daemon-level ops the engine does not own:
    - [{"op":"metrics"}] — the {!Obs.Export.prometheus_text} registry as a
      JSON string body; a raw [GET /metrics] request line gets the same
      body as a plain HTTP response (then the connection closes);
    - [{"op":"stream-spans"}] — the connection becomes a span stream: one
      {!Obs.Export.span_json} line per completed span, written through a
      nonblocking fd (a full kernel buffer drops spans and counts them on
      [serve.stream.dropped] rather than stalling a worker);
    - [{"op":"shutdown","drain":bool}] — stop accepting; with [drain]
      (default) join every in-flight job before returning.

    Shutdown leaves the process alive: {!run} simply returns, after
    flushing streaming sinks and closing every fd (and unlinking a Unix
    socket path). *)

type endpoint =
  | Unix_socket of string
  | Tcp of string * int

val endpoint_to_string : endpoint -> string

val run :
  ?config:Engine.config ->
  ?jobs:int ->
  ?stream_trace:string ->
  ?stop:bool Atomic.t ->
  ?ready:(unit -> unit) ->
  endpoint ->
  unit
(** Serve until a shutdown op arrives or [stop] is set (checked a few times
    a second; a [stop] shutdown drains).  [jobs] (default 2) sizes the pool.
    [stream_trace] appends every completed span to FILE as JSON lines,
    flushed per span — tracing is enabled and span buffering turned off, so
    a long-lived daemon does not accumulate spans in memory.  [ready] runs
    once, right after the socket starts listening.
    @raise Core.Parallel.Pool_start_failed if the pool cannot start (the
    socket is closed and unlinked first). *)
