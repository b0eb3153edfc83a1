(** Plumbing of the lint ({!Typedlint}): the finding type and its
    rendering, and the justified-waiver parsing (in-source [lint-waive]
    markers plus the [LINT_WAIVERS] file).  The rules run on typedtrees;
    the compiler's own lexer only decides which code line a standalone
    waiver comment covers.  Every suppression carries a justification, and
    [Typedlint] reports a suppression that stops matching anything, so the
    waiver set can only shrink. *)

(** One lint finding.  Every rule is an error. *)
type finding = {
  rule_id : string;  (** e.g. ["typed/capture-escape"] *)
  sites : string list;
      (** primary site first; context sites (the fork site) after *)
  message : string;
}

val render : finding list -> string
(** One line per finding: [error[rule_id] sites a,b: message]. *)

val to_json : finding list -> Obs.Json.t
(** The same list as a JSON array of
    [{ "rule_id", "severity", "sites", "message" }] objects. *)

(** {1 Waivers} *)

val min_reason_len : int
(** Minimum justification length for any waiver. *)

type line_waiver = {
  lw_line : int;       (** the marker's own line *)
  lw_rule : string;
  lw_covers : int list;  (** lines the waiver suppresses *)
}

val line_waivers : path:string -> string -> line_waiver list * finding list
(** [line_waivers ~path content] finds every in-source
    [(* lint-waive: <rule> — <justification> *)] marker in a source file:
    a marker sharing its line with code covers exactly that line; a
    standalone comment covers every line down to (and including) the
    first following code line.  A line is code when a token of the
    compiler's lexer starts on it, so comments, docstrings and the inside
    of string literals never are.  Unjustified markers come back as
    [lint/waiver-unjustified] findings. *)

type waiver = {
  w_rule : string;
  w_path : string;  (** substring matched against the scanned path *)
  w_reason : string;
}

val parse_waivers : string -> waiver list * finding list
(** Parse a [LINT_WAIVERS] file body (one waiver per line, [#]-comments
    and blank lines ignored).  Malformed or unjustified lines come back
    as findings. *)
