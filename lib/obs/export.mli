(** Exporters over the ambient {!Trace} and {!Metrics} state.

    Four formats:
    - {!text_summary}: human-readable metric values plus a per-span-name
      rollup (calls / total time / allocation);
    - {!metrics_json} and {!spans_json}: machine-readable JSON;
    - {!chrome_json}: the Chrome [trace_event] format (JSON object with a
      [traceEvents] array of complete ["X"] events plus thread-name
      metadata), loadable in [chrome://tracing] and Perfetto.  Each worker
      domain renders as its own track; [ts] and [dur] are integer
      microseconds, both span ends floored so nesting is preserved;
    - {!prometheus_text}: the Prometheus exposition format.

    The JSON exporters return {!Json.t} values: print them with
    {!Json.write_file} (files) or {!Json.to_string} (one line on a
    wire).  Nanosecond times and GC word counts are integers. *)

val text_summary : unit -> string

val metrics_json : ?prefix:string -> unit -> Json.t
(** The registry as one JSON object; [prefix] restricts to instruments whose
    name starts with it. *)

val spans_json : unit -> Json.t
(** Recorded spans as a JSON array (native format: track, depth, start_ns,
    dur_ns, GC words, args). *)

val span_json : Trace.span -> Json.t
(** One span as a JSON object (the element format of {!spans_json});
    streaming sinks emit one of these per line. *)

val prometheus_text : unit -> string
(** The registry in Prometheus exposition format (registry dots become
    underscores; histograms render cumulative [_bucket]/[_sum]/[_count]
    series; infos render as a labeled constant-1 gauge).  The daemon's
    live metrics endpoint serves this. *)

val chrome_json : unit -> Json.t
