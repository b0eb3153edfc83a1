(* Deterministic fork-join task scheduler over OCaml 5 domains.

   The parallel tasks are suite rows ([map]) and daemon jobs ([fork] /
   [join_result] in [Serve.Engine]); neither forks from inside another, so
   one lock-guarded FIFO queue feeds every worker.  Nested [fork] stays
   legal: the nested task is queued behind the others, and its joiner claims
   it inline if no worker has started it yet.

   Determinism argument (DESIGN.md §13):
   - A future is an [Atomic] holding [Pending f | Running | Done result].
     Exactly one runner claims it by CAS [Pending -> Running]; the result is
     published with a plain [Atomic.set] (seq-cst, so the joiner's read of
     [Done] orders after every write the task made).
   - [join] returns the stored value (or re-raises the stored exception with
     its original backtrace) — the *value* never depends on which domain ran
     the task or when.
   - Callers fork only tasks whose side effects commute (atomic metrics
     counters, per-scope BDD accounting, per-row network copies) and join
     in program order.  Hence output is byte-identical for any [--jobs N].
   - With no pool active (jobs=1, or fork outside [run]), [fork] executes the
     task inline at fork time: program order *is* serial order, so the serial
     run is literally the jobs=1 run.

   Idle workers sleep on a condition variable, so on an oversubscribed box
   extra workers park instead of burning a core. *)

let cores () = Domain.recommended_domain_count ()

let default_jobs () = max 1 (cores ())

(* More workers than cores measures scheduling overhead, not scaling;
   benchmark reporters use this to flag misleading speedup numbers. *)
let oversubscribed ~jobs = jobs > cores ()

exception Worker_failure of int * exn

exception Pool_start_failed of int * exn

(* Scheduler observability: counts vary with [jobs] and scheduling (inline
   forks, parks), so they are excluded from determinism comparisons — see
   [Bench] / CI, which compare only semantic metrics. *)
let m_forked = Obs.Metrics.counter "parallel.tasks.forked"
let m_inline = Obs.Metrics.counter "parallel.tasks.inline"
let m_waits = Obs.Metrics.counter "parallel.joins.waited"
let m_pools = Obs.Metrics.counter "parallel.pools"
let m_parked = Obs.Metrics.counter "parallel.sleepers.parked"
let m_woken = Obs.Metrics.counter "parallel.sleepers.woken"

type 'a state =
  | Pending of (unit -> 'a)
  | Running
  | Done of ('a, exn * Printexc.raw_backtrace) result

type 'a future = 'a state Atomic.t

type task = Task : 'a future -> task

(* Claim and execute a task.  Does nothing if someone else already claimed
   it (a queue entry whose joiner ran it inline).  The CAS is the only way
   [Pending] becomes [Running], so a task body runs exactly once. *)
let try_run (Task fut) =
  match Atomic.get fut with
  | Running | Done _ -> ()
  | Pending f as st ->
    if Atomic.compare_and_set fut st Running then begin
      let r =
        match f () with
        | v -> Ok v
        | exception e -> Error (e, Printexc.get_raw_backtrace ())
      in
      Atomic.set fut (Done r)
    end

(* A pool's queue and its [quit] flag, owned by the pool's lock.  Every
   push signals one parked worker; shutdown wakes them all.  No critical
   section on the lock takes another lock. *)
type pool_state = {
  queue : task Queue.t;
  mutable quit : bool;
}

type pool = pool_state Obs.Locked.t

(* Ambient scheduler context: which pool this domain works for.  [None]
   outside [run] and on foreign domains — there [fork] executes inline. *)
let ctx_key : pool option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let push pool t =
  Obs.Locked.use pool (fun p -> Queue.push t p.queue);
  Obs.Locked.signal pool

(* The next queued task, parking while the queue is empty; [None] once the
   pool shuts down.  Every attempt after the first follows a wake-up. *)
let take pool =
  let attempts = ref 0 in
  Obs.Locked.await pool (fun p ->
      if !attempts > 0 then Obs.Metrics.incr m_woken;
      incr attempts;
      if p.quit then Some None
      else
        match Queue.take_opt p.queue with
        | Some _ as t -> Some t
        | None ->
          Obs.Metrics.incr m_parked;
          None)

let worker_loop pool =
  Domain.DLS.set ctx_key (Some pool);
  let rec loop () =
    match take pool with
    | Some t ->
      try_run t;
      loop ()
    | None -> ()
  in
  loop ()

let fork f =
  let fut = Atomic.make (Pending f) in
  (match Domain.DLS.get ctx_key with
   | Some pool ->
     Obs.Metrics.incr m_forked;
     push pool (Task fut)
   | None ->
     (* No pool: run right now.  Program order = serial order, which is what
        makes jobs=1 byte-identical by construction. *)
     Obs.Metrics.incr m_inline;
     try_run (Task fut));
  fut

(* A join claims a [Pending] future and runs it inline — that is a real
   dependency, so the thread's stack only ever holds tasks it needs.  While
   the future runs on another domain the joiner *waits* (brief spins, then
   an escalating micro-sleep so an oversubscribed box lets the owning
   domain finish); it deliberately does NOT "help" by running unrelated
   queued tasks.  Helping would stack a fresh task on top of a suspended
   one, and with one future joining another, two domains can each end up
   waiting for a task suspended under the other's helper frame: deadlock.
   Without helping, every thread's wait-for edge follows a real task
   dependency, and since a task can only join futures forked before it,
   that graph is acyclic. *)
let rec await fut spins =
  match Atomic.get fut with
  | Done r -> r
  | Pending _ ->
    try_run (Task fut);
    await fut 0
  | Running ->
    if spins = 0 then Obs.Metrics.incr m_waits;
    Domain.cpu_relax ();
    if spins >= 100 then Unix.sleepf (Float.min 1e-3 (5e-5 *. float spins));
    await fut (spins + 1)

let join_result fut = await fut 0

let join fut =
  match join_result fut with
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let run ?jobs f =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  match Domain.DLS.get ctx_key with
  | Some _ -> f () (* nested [run]: reuse the ambient pool *)
  | None when jobs = 1 -> f ()
  | None ->
    Obs.Metrics.incr m_pools;
    let pool = Obs.Locked.create { queue = Queue.create (); quit = false } in
    let domains = ref [] in
    let shutdown () =
      Domain.DLS.set ctx_key None;
      Obs.Locked.use pool (fun p -> p.quit <- true);
      Obs.Locked.broadcast pool;
      List.iter Domain.join !domains
    in
    (* the calling domain is worker 0; a spawn that fails partway shuts
       down the workers already running, so none outlives this call *)
    (try
       for _ = 2 to jobs do
         domains :=
           Domain.spawn (fun () ->
               (* one span per worker: on a Chrome trace each domain is a
                  distinct track holding the spans of the tasks it ran *)
               Obs.Trace.span ~cat:"parallel" "worker" (fun () ->
                   worker_loop pool))
           :: !domains
       done
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       shutdown ();
       Printexc.raise_with_backtrace (Pool_start_failed (jobs, e)) bt);
    Domain.DLS.set ctx_key (Some pool);
    Fun.protect ~finally:shutdown f

(* [map ~jobs f items]: apply [f] to every element under a pool of
   [min jobs n] workers — a worker beyond the item count would have nothing
   to run.  The calling domain claims items in slot order like any other
   worker before it joins.  Results are returned in item order; if any [f]
   raises, the exception of the lowest-indexed failing item is re-raised
   (wrapped in [Worker_failure], carrying the original backtrace) — also
   deterministically, because futures are joined in slot order. *)
let map ?jobs f items =
  let n = Array.length items in
  if n = 0 then [||]
  else
    let jobs = match jobs with Some j -> j | None -> default_jobs () in
    run ~jobs:(min jobs n) (fun () ->
        let futs = Array.map (fun x -> fork (fun () -> f x)) items in
        Array.iter (fun fut -> try_run (Task fut)) futs;
        Array.mapi
          (fun i fut ->
            match join_result fut with
            | Ok v -> v
            | Error (e, bt) ->
              Printexc.raise_with_backtrace (Worker_failure (i, e)) bt)
          futs)

let map_list ?jobs f items = Array.to_list (map ?jobs f (Array.of_list items))
