(** The repo's static lint: one analyzer over compiler-libs typedtrees.

    Loads [.cmt] files (the repo builds with [-bin-annot]) and checks
    them with real binding and scope resolution.  All rules have [Error]
    severity; findings use the {!Lint_common.finding} shape.

    Five name rules look up resolved identifier paths.  Each finding sits
    on the identifier's line.  [Hashtbl.fold] reached through [open], a
    module alias or [let module] is caught, and a local binding that
    merely shares a name is not:

    - [nondet/hashtbl-order] — [Hashtbl.iter]/[fold]/[to_seq*], unless
      the call is an argument of a [*.sort]/[*.stable_sort]/[*.sort_uniq]
      call ([x |> List.sort cmp] and [List.sort cmp @@ x] count).
    - [nondet/wall-clock] — [Unix.gettimeofday], [Unix.time], [Sys.time].
    - [nondet/ambient-random] — any [Random] value outside [Random.State].
    - [nondet/domain-id] — [Domain.self].
    - [mm/physical-eq-key] — [Obj.repr], [Obj.magic], or [==] inside a
      [Hashtbl.*] application.

    Three dataflow rules follow closures and module state:

    - [typed/capture-escape] — a thunk passed to [Sched.fork] /
      [Core.Parallel.fork]/[map]/[map_list] whose closure captures a
      [ref], [Hashtbl.t] or [Buffer.t] from an enclosing scope, or writes
      a mutable record field of a captured value, without routing through
      [Atomic], a [Mutex]-guarded section, [Domain.DLS] or the obs
      registries.
    - [typed/module-escape] — module-level mutable state reachable from
      the flow entry points ([Flow.run_all], [Report.Table.run_suite*],
      the [bin/] executables) with no synchronization wrapper
      ([Atomic], [Obs.Locked], [Mutex], [Condition], [Domain.DLS]).
    - [typed/blocking-in-task] — [Mutex.lock], [Condition.wait],
      [Obs.Locked.await], [Unix] blocking calls or [Thread.delay]
      syntactically reachable inside a forked task body, directly or
      through same-unit helpers: the no-help fork-join scheduler parks a
      whole worker.

    No rule checks lock discipline: every lock in [lib/] is an
    {!Obs.Locked.t} that owns what it guards, so an unlocked access does
    not compile.  The dataflow rules are deliberately conservative
    (silence over noise): intraprocedural plus one same-unit hop, and
    lambdas never seen called treated as unreachable.  DESIGN.md §15
    documents every deliberate gap.

    Waivers follow {!Lint_common}: a justified in-source
    [(* lint-waive: <rule-id> — <justification> *)] trailing the line or
    standing above it, or a [LINT_WAIVERS] line
    [<rule-id> <path-substring> <justification>].  This module owns every
    waiver check, for both kinds: [lint/waiver-unjustified],
    [lint/waiver-unknown-rule] and [lint/waiver-unused]. *)

type finding = Lint_common.finding = {
  rule_id : string;
  sites : string list;
      (** primary site first; context sites (the fork site) after *)
  message : string;
}

val rule_ids : string list
(** The eight waivable rule ids, sorted.  [scan_cmt_files] can also emit
    the waiver-hygiene findings above and [lint/unscanned-source]. *)

type config = {
  source_root : string;
      (** directory the cmt-recorded source paths are relative to (the
          build root); in-source waivers are read from here *)
  entry_points : string list;
      (** dotted suffixes of qualified toplevel value names that mark a
          unit as a flow entry *)
  entry_path_prefixes : string list;
      (** source-path prefixes whose units are entries (executables) *)
  sanctioned_path_fragments : string list;
      (** source-path fragments whose units hold sanctioned synchronized
          registries (their internals are exempt) *)
}

val default_config : config
(** Entries [Flow.run_all] / [Table.run_suite] / [Table.run_suite_timed]
    plus everything under [bin/]; sanctioned registry [lib/obs]; source
    root ["."]. *)

type result = {
  findings : finding list;  (** post-waiver, sorted and deduped *)
  files_scanned : int;      (** distinct implementation units analyzed *)
  rules_fired : (string * int) list;
      (** pre-waiver fired counts per rule id (distinct findings), sorted *)
  waivers_honored : int;    (** findings a waiver suppressed *)
}

val scan_cmt_files :
  ?config:config -> ?waivers:string -> sources:string list -> string list ->
  result
(** [scan_cmt_files ~sources cmts] analyzes the given [.cmt] files
    (interface-only files are skipped; units are deduped by recorded
    source file, sorted for determinism).  [waivers] is the body of a
    [LINT_WAIVERS] file; in-source waivers are read from each unit's
    source under [config.source_root].  Every path in [sources] (as the
    cmt records it, e.g. ["lib/sta/sta.ml"]) that no readable unit claims
    comes back as a [lint/unscanned-source] finding, so an unreadable or
    missing [.cmt] cannot pass as clean. *)

val publish_stats : result -> unit
(** Publish [typedlint.*] gauges (files scanned, findings, rules fired —
    total and per rule — waivers honored) through the {!Obs.Metrics}
    registry; a no-op unless metrics are enabled. *)
