(** Blocking client for the daemon protocol: one request line out, one
    response line back.  Used by the [resynthd client] mode, the serve
    benchmark and the protocol tests; never call it from a pool task (it
    sleeps between polls). *)

type conn

val connect : Daemon.endpoint -> conn
(** Raises [Unix.Unix_error] when nothing is listening. *)

val close : conn -> unit

val request : conn -> Obs.Json.t -> (Obs.Json.t, string) result
(** Send one document, read one response line; [Error] on a dropped
    connection or an unparsable response. *)

val request_line : conn -> string -> (Obs.Json.t, string) result
(** {!request} with a raw preformatted line — the tests use it to send
    deliberately malformed documents. *)

val read_line : conn -> string option
(** Read one raw line without sending anything; [None] once the daemon
    closes the connection.  For consuming a span stream after a
    [stream-spans] subscription. *)

val wait : ?poll_s:float -> conn -> id:string -> (Obs.Json.t, string) result
(** Poll [status] until the request is terminal (default every 20 ms), then
    fetch and return the [result] response — which carries the job's own
    error code when the job failed, was cancelled or timed out. *)

val submit_and_wait :
  ?poll_s:float -> conn -> Obs.Json.t -> (Obs.Json.t, string) result
(** Submit (the document must be a [submit] op), then {!wait} on the id the
    daemon acknowledged.  A rejected submit returns the rejection
    response. *)
