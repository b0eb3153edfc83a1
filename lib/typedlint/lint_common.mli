(** Plumbing of the lint ({!Typedlint}): the finding type and its
    rendering, the OCaml lexer-subset comment/string stripper and the
    justified-waiver parsing (in-source [lint-waive] markers plus the
    [LINT_WAIVERS] file).  The
    rules run on typedtrees; the stripper only decides which code line a
    standalone waiver comment covers.  Every suppression carries a
    justification, and [Typedlint] reports a suppression that stops
    matching anything, so the waiver set can only shrink. *)

(** One lint finding.  Every rule is an error. *)
type finding = {
  rule_id : string;  (** e.g. ["typed/lock-discipline"] *)
  sites : string list;
      (** primary site first; context sites (the fork site) after *)
  message : string;
}

val render : finding list -> string
(** One line per finding: [error[rule_id] sites a,b: message]. *)

val to_json : finding list -> Obs.Json.t
(** The same list as a JSON array of
    [{ "rule_id", "severity", "sites", "message" }] objects. *)

(** {1 Comment / string stripping}

    A faithful-enough OCaml lexer subset: nested [(* *)] comments
    (including strings, [{| |}] / [{id| |id}] quoted strings and char
    literals {e inside} comments, which the real lexer also balances),
    double-quoted strings with escapes, quoted strings with identifier
    delimiters, and char literals (so ['"'] opens no string, in code or
    in a comment). *)

val strip_lines : string -> string list * string array
(** Strip a whole file: returns the raw lines and the code-only lines
    (non-code bytes replaced by spaces, so column positions survive). *)

(** {1 Waivers} *)

val min_reason_len : int
(** Minimum justification length for any waiver. *)

type line_waiver = {
  lw_line : int;       (** the marker's own line *)
  lw_rule : string;
  lw_covers : int list;  (** lines the waiver suppresses *)
}

val line_waivers :
  path:string -> string list -> string array -> line_waiver list * finding list
(** [line_waivers ~path raw_lines code_lines] finds every in-source
    [(* lint-waive: <rule> — <justification> *)] marker: a marker sharing
    its line with code covers exactly that line; a standalone comment
    covers every line down to (and including) the first following code
    line.  Unjustified markers come back as [lint/waiver-unjustified]
    findings. *)

type waiver = {
  w_rule : string;
  w_path : string;  (** substring matched against the scanned path *)
  w_reason : string;
}

val parse_waivers : string -> waiver list * finding list
(** Parse a [LINT_WAIVERS] file body (one waiver per line, [#]-comments
    and blank lines ignored).  Malformed or unjustified lines come back
    as findings. *)
