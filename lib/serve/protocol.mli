(** The daemon's newline-delimited JSON request grammar.

    One request per line, one response line per request (span-stream
    subscriptions additionally receive unsolicited span lines).  Every
    response is a JSON object with an ["ok"] boolean; errors carry a
    stable ["error"] code plus a human ["detail"].  DESIGN.md §16 has the
    full grammar and the request state machine.

    This module only classifies and validates request documents — it holds
    no daemon state, so the unit tests can exercise the whole grammar
    without a socket. *)

type submit_options = {
  verify : bool;        (** sequential-equivalence check of flow results *)
  verify_each : bool;   (** static verifier at every pass boundary *)
  eqcheck_each : bool;  (** semantic equivalence analyzer at boundaries *)
  timeout_s : float option;
      (** per-request wall-clock budget, checked at pass boundaries *)
  cancel_after_passes : int option;
      (** test hook: self-cancel after N pass-boundary crossings, exercising
          the mid-flow cancellation path deterministically *)
}

val default_submit_options : submit_options

type source =
  | Benchmark of string  (** a suite circuit, by name *)
  | Blif of string       (** an inline BLIF netlist *)

type request =
  | Ping
  | Submit of {
      id : string option;  (** client-chosen id; server assigns otherwise *)
      source : source;
      opts : submit_options;
    }
  | Status of string
  | Result of string
  | Diagnostics of string
  | Cancel of string
  | Metrics
  | Stream_spans
  | Shutdown of { drain : bool }

val request_of_json :
  max_netlist_bytes:int -> Obs.Json.t -> (request, string * string) result
(** Classify a parsed request document; [Error (code, detail)] uses the
    protocol error codes (["bad-request"], ["unknown-op"],
    ["netlist-too-large"], ...). *)

val error : code:string -> detail:string -> Obs.Json.t
(** [{"ok": false, "error": code, "detail": detail}]. *)

val error_retry : code:string -> detail:string -> retry_after_ms:int -> Obs.Json.t
(** {!error} plus a ["retry_after_ms"] backoff hint (queue-full
    rejection). *)

val ok : (string * Obs.Json.t) list -> Obs.Json.t
(** [{"ok": true, ...fields}]. *)
