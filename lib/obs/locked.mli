(** A mutex that owns the value it guards.

    Every lock in [lib/] is one of these: the guarded value is reachable
    only through {!use}, which runs a function under [Mutex.protect], so
    an access without the lock does not compile.  The function must not
    let the value (or a mutable part of it) escape.  An exception raised
    inside releases the lock.

    Locks nest in one place only: {!Trace} runs its sinks under its sink
    registry's lock, and a sink may take its own writer's lock.  No other
    critical section takes a lock, so no two locks are ever taken in
    opposite orders. *)

type 'a t

val create : 'a -> 'a t

val use : 'a t -> ('a -> 'b) -> 'b
(** [use t f] runs [f] on the guarded value while holding the lock. *)

val await : 'a t -> ('a -> 'b option) -> 'b
(** [await t f] runs [f] under the lock until it returns [Some r], and
    returns [r].  Between attempts it releases the lock and sleeps until
    {!signal} or {!broadcast}.  The scheduler's idle workers park here. *)

val signal : 'a t -> unit
(** Wake one domain parked in {!await}.  Call it after the [use] that
    made the awaited condition true. *)

val broadcast : 'a t -> unit
(** Wake every domain parked in {!await}. *)
