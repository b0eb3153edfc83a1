(** Concurrency & determinism sanitizer: thin instrumented shims over the
    synchronization primitives and ownership invariants that [lib/sched]
    and [lib/bdd] are built on.

    The shims are zero-cost when disabled — every event entry point is one
    atomic load and a branch, the same budget as [Obs] — and are enabled by
    the [SANITIZE] environment variable (any non-empty value other than
    ["0"]) or programmatically ({!enable}, wired to [table1 --sanitize]).
    When enabled they check these dynamic rules online:

    - {b [lock/cycle]} — lock-order acyclicity across every {!Lock} shim
      (the scheduler queue lock, the BDD table-registry lock).  Nested
      acquisitions build a lock graph whose edges carry the acquiring call
      stack; any cycle is reported with the backtrace of every edge on it.
    - {b [future/...]} — single-claim scheduler futures: a future claimed
      twice is [future/double-claim]; a completion by a domain that never
      claimed it is [future/foreign-done].
    - {b [dls/cross-scope-hit]} — [Domain.DLS] cache scope-stamp
      discipline: a memo-cache hit whose recorded owner scope differs from
      the current scope leaked work (and node-accounting charge) across
      scopes, breaking warmth-independent budgets.
    - {b [dls/foreign-scope]} — BDD table ownership: a scope is used only
      on the domain whose table it was opened on.

    Checks only {e observe}; they never change the instrumented program's
    results, so a sanitized run stays byte-identical to an uninstrumented
    one.

    Findings reuse the [Verify] report shape ([{rule_id; severity; sites;
    message}], same text and JSON rendering) and the event tallies are
    published as [sanitize.*] counters in the [Obs] metrics registry. *)

type severity = Error | Warning

type finding = {
  rule_id : string;  (** e.g. ["lock/cycle"] *)
  severity : severity;
  sites : string list;
      (** offending sites — lock names, future ids, scope and table
          uids — ascending *)
  message : string;
}

val enabled : unit -> bool
(** One atomic load; every shim event gates on it. *)

val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Drop all recorded findings and protocol state (lock graph, future
    claims).  The enabled flag is left unchanged. *)

val findings : unit -> finding list
(** Every finding recorded so far, deduplicated, errors first, then sorted
    by [(rule_id, sites)] — deterministic regardless of event timing. *)

val render : finding list -> string
(** One line per finding: [severity[rule_id] sites a,b: message] — the
    [Verify.render] shape. *)

val render_json : finding list -> string
(** The same list as a JSON array of objects (the [Verify.render_json]
    shape, with [sites] in place of [node_ids]). *)

val publish_stats : unit -> unit
(** Export [sanitize.*] gauges (event and finding tallies) into the [Obs]
    metrics registry. *)

(** Instrumented mutex shim.  Wraps a real [Mutex.t]; when the sanitizer is
    enabled, acquisitions maintain a per-domain held set and feed the
    global lock graph checked for cycles ([lock/cycle]). *)
module Lock : sig
  type t

  val create : order:int -> name:string -> t
  (** [order] is the lock's documented rank (informational, rendered in
      reports); [name] identifies it in findings. *)

  val lock : t -> unit
  val try_lock : t -> bool
  val unlock : t -> unit

  val wait : Condition.t -> t -> unit
  (** [Condition.wait] on the shimmed mutex (the lock is treated as held
      throughout, matching the caller's view). *)
end

(** Single-claim future events.  Future uids come from {!Future.fresh};
    uid 0 is the "untracked" sentinel and is ignored by every event. *)
module Future : sig
  val fresh : unit -> int
  (** A new nonzero future uid. *)

  val claimed : fut:int -> unit
  (** The calling domain won the [Pending -> Running] CAS.  A second claim
      of the same future is [future/double-claim]. *)

  val completed : fut:int -> unit
  (** The calling domain stored [Done].  Reports [future/foreign-done]
      unless it is the recorded claimant. *)

  val claimed_by : fut:int -> domain:int -> unit
  (** {!claimed} with an explicit domain id — for driving the checker from
      deterministic single-domain tests. *)

  val completed_by : fut:int -> domain:int -> unit
end

(** [Domain.DLS] scope events. *)
module Dls : sig
  val cache_hit : entry_uid:int -> scope_uid:int -> unit
  (** A memo-cache hit: [entry_uid] is the stamp stored with the entry,
      [scope_uid] the scope consuming it.  A mismatch is
      [dls/cross-scope-hit]. *)

  val scope_used : scope_table:int -> domain_table:int -> unit
  (** A BDD scope on table [scope_table] was used by a domain whose own
      table is [domain_table].  A mismatch is [dls/foreign-scope]. *)
end
