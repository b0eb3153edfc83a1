(** Socket-free serving core: request lifecycle over the fork-join pool.

    One engine serves many requests from warmed shared state — a keyed cache
    of pristine parsed/built networks (each request flows over its own
    {!Netlist.Network.copy}) and each worker domain's BDD unique table
    (DESIGN §12).  Admission is bounded: past [queue_capacity] in-flight
    jobs a submit is rejected with a [retry_after_ms] hint instead of
    queueing unboundedly.  Each accepted job runs as one task on the ambient
    {!Core.Parallel} pool; cancellation and deadlines are cooperative,
    checked at every pass boundary by a {!Core.Flow.run_all} [?hooks] hook,
    so a cancelled flow stops at the next boundary without poisoning any
    shared state.

    The engine holds no socket and spawns no domain of its own, so the
    whole lifecycle is unit-testable in-process; {!Daemon} adds the wire. *)

type config = {
  queue_capacity : int;      (** max in-flight (queued + running) jobs *)
  max_netlist_bytes : int;   (** submit-side inline-BLIF size cap *)
  default_timeout_s : float option;
      (** deadline applied when a submit names none; [None] = unlimited *)
  retry_after_ms : int;      (** backoff hint on queue-full rejection *)
}

val default_config : config
(** capacity 8, 4 MiB netlists, no default timeout, retry after 100 ms. *)

type t

val create : ?config:config -> unit -> t

val config : t -> config

val handle : t -> Protocol.request -> Obs.Json.t option
(** Serve one classified request; [None] for the daemon-level ops
    ([Metrics], [Stream_spans], [Shutdown]) the engine does not own. *)

val submit :
  t -> id:string option -> Protocol.source -> Protocol.submit_options ->
  Obs.Json.t
(** Validate (benchmark name / BLIF parse / size), then either reject with
    [queue-full] + [retry_after_ms], fail with a structured error, or fork
    the job and answer [{"ok":true,"id":...,"state":"queued"}].  Admission
    must stay single-threaded (the daemon's event loop): the
    capacity check-then-fork is not atomic against concurrent submitters. *)

val submit_held : t -> id:string option -> release:bool Atomic.t -> Obs.Json.t
(** Test hook: a job that occupies an in-flight slot, spinning until
    [release] (or its own cancel flag) is set.  Deterministic backpressure
    without wall-clock sleeps; never produced by the wire protocol. *)

val status : t -> string -> Obs.Json.t
val result : t -> string -> Obs.Json.t
val diagnostics : t -> string -> Obs.Json.t
(** Nondeterministic per-request accounting — elapsed time, pass-boundary
    count, {!Obs.Metrics.delta} over the job's window — kept out of
    {!result} so result payloads stay byte-deterministic. *)

val cancel : t -> string -> Obs.Json.t
(** Sets the job's cancel flag; a queued or running job stops at its next
    pass boundary.  Terminal jobs are unaffected (the response reports the
    state either way). *)

val ping : t -> Obs.Json.t

val inflight : t -> int

val drain : t -> unit
(** Join every job ever forked (terminal joins are free).  Call from the
    daemon thread during graceful shutdown, never from a pool task. *)
