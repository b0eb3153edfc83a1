(** Concurrency & determinism sanitizer: thin instrumented shims over the
    synchronization primitives that [lib/sched] and [lib/bdd] build their
    hand-argued OCaml 5 memory-model invariants on.

    The shims are zero-cost when disabled — every event entry point is one
    atomic load and a branch, the same budget as [Obs] — and are enabled by
    the [SANITIZE] environment variable (any non-empty value other than
    ["0"]) or programmatically ({!enable}, wired to [table1 --sanitize]).
    When enabled they record per-domain event streams and check four
    dynamic rules online:

    - {b [lock/cycle]} — lock-order acyclicity across every {!Lock} shim
      (the 64 BDD stripe locks, the scheduler queue lock, the BDD
      cache-registry lock).  Nested acquisitions build a lock graph whose
      edges carry the acquiring call stack; any cycle is reported with the
      backtrace of every edge on it.
    - {b [pub/...]} — the write-once publication protocol of the shared BDD
      node store: fields written, {e then} the publication counter fenced,
      {e then} the id published into a unique-table slot.  A slot published
      without an intervening fence is [pub/unfenced-publish]; a reader that
      obtains an id whose publication never reached the fence is
      [pub/unfenced-read]; a second field write to the same node is
      [pub/double-write].
    - {b [future/...]} — single-claim scheduler futures: a future claimed
      twice is [future/double-claim]; a completion by a domain that never
      claimed it is [future/foreign-done].
    - {b [dls/cross-scope-hit]} — [Domain.DLS] cache scope-stamp
      discipline: a memo-cache hit whose recorded owner scope differs from
      the current scope leaked work (and node-accounting charge) across
      scopes, breaking warmth-independent budgets.

    Checks only {e observe}; they never change the instrumented program's
    results, so a sanitized run stays byte-identical to an uninstrumented
    one.  Checks are also conservative about the memory model they police:
    before reporting a publication-order violation the checker re-reads the
    protocol state under the sanitizer's own mutex with bounded backoff, so
    a plain-field read that merely raced a writer's (correct) fence can
    never produce a false positive.

    Findings reuse the [Verify] report shape ([{rule_id; severity; sites;
    message}], same text and JSON rendering) and the event tallies are
    published as [sanitize.*] counters in the [Obs] metrics registry. *)

type severity = Error | Warning

type finding = {
  rule_id : string;  (** e.g. ["pub/unfenced-publish"] *)
  severity : severity;
  sites : string list;
      (** offending sites — lock names, [table:id] node coordinates,
          future ids, scope uids — ascending *)
  message : string;
}

val enabled : unit -> bool
(** One atomic load; every shim event gates on it. *)

val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Drop all recorded findings and protocol state (lock graph, publication
    state machines, future claims).  The enabled flag is left unchanged. *)

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

(** Publication-protocol events for a write-once node store.  [table]
    identifies the store (the BDD table uid), [id] the node.  The legal
    per-node order is [wrote] -> [fenced] -> [published], after which any
    number of [read]s may observe the id.  Ids never seen by [wrote]
    (consed before the sanitizer was enabled) are exempt: rules fire only
    on positively observed protocol breaks. *)
module Pub : sig
  val wrote : table:int -> id:int -> unit
  (** Node fields written to the store (pre-fence). *)

  val fenced : table:int -> id:int -> unit
  (** The publication counter was bumped (the release fence) covering
      [id]. *)

  val published : table:int -> id:int -> unit
  (** [id] was made discoverable (stored into a unique-table slot).
      Reports [pub/unfenced-publish] if the fence was skipped. *)

  val read : table:int -> id:int -> unit
  (** A reader obtained [id] from a published slot and will trust its
      fields.  Reports [pub/unfenced-read] if [id]'s publication is known
      to have skipped the fence. *)
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

(** [Domain.DLS] cache scope-stamp events. *)
module Dls : sig
  val cache_hit : entry_uid:int -> scope_uid:int -> unit
  (** A memo-cache hit: [entry_uid] is the stamp stored with the entry,
      [scope_uid] the scope consuming it.  A mismatch is
      [dls/cross-scope-hit]. *)
end
