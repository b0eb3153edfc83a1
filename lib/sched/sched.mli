(** Deterministic fork-join task scheduler over OCaml 5 domains.

    One lock-guarded FIFO queue shared by every worker, [fork]/[join]
    futures, and a [map] wrapper preserving slot-ordered,
    lowest-index-failure semantics.  The parallel tasks are suite rows and
    daemon jobs.  Joined values never depend on scheduling: output is
    byte-identical for any [--jobs N] (DESIGN.md §13 has the full
    argument). *)

val cores : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val default_jobs : unit -> int
(** [max 1 (cores ())]. *)

val oversubscribed : jobs:int -> bool
(** [jobs > cores ()]: more workers than cores measures scheduling overhead,
    not scaling; benchmark reporters flag such runs. *)

exception Worker_failure of int * exn
(** Raised by {!map} with the item index and original exception of the
    lowest-indexed failing item.  The original backtrace is preserved
    (re-raised with [Printexc.raise_with_backtrace]). *)

exception Pool_start_failed of int * exn
(** Raised by {!run} (and so {!map}) with the requested worker count and
    the [Domain.spawn] failure when the pool cannot start.  The workers
    spawned before the failure have been shut down and joined, so later
    pools start normally. *)

type 'a future
(** A task handle.  Created [Pending], claimed exactly once (by a worker or
    the joiner itself), resolved to a value or an exception with its
    captured backtrace. *)

val fork : (unit -> 'a) -> 'a future
(** Queue [f] on the pool's queue.  Outside any pool (jobs=1, or a foreign
    domain) [f] runs inline immediately, so program order is serial order
    and the serial run is the jobs=1 run by construction.  Forking from
    inside a task is legal. *)

val join : 'a future -> 'a
(** Wait for the task's value.  A [Pending] task is claimed and run inline
    by the joiner; while the task runs elsewhere the joiner waits (it never
    runs unrelated tasks while blocked — see the deadlock note in
    [sched.ml]).  Re-raises the task's exception with its original
    backtrace.  Safe to join the same future from several places. *)

val join_result : 'a future -> ('a, exn * Printexc.raw_backtrace) result
(** Like {!join} but reifies failure instead of raising. *)

val run : ?jobs:int -> (unit -> 'a) -> 'a
(** [run ~jobs f] creates a pool of [jobs] workers (the calling domain is
    worker 0; [jobs - 1] domains are spawned), runs [f] inside it so that
    {!fork} distributes work, then shuts the pool down.  [jobs <= 1] runs
    [f] directly with no pool.  Nested [run] calls reuse the ambient pool.
    @raise Pool_start_failed if a worker domain cannot be spawned. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** Apply [f] to every element under a pool of [min jobs (Array.length
    items)] workers ([jobs] defaults to [default_jobs ()]); the calling
    domain runs items too.  Results are in item order; on failure the
    lowest-indexed failing item's exception is raised as
    {!Worker_failure}. *)

val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** {!map} over lists. *)
