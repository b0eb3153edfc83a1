(* Concurrency & determinism sanitizer (dynamic head).

   The scheduler (lib/sched) and the domain-shared BDD table (lib/bdd) are
   correct only under hand-argued OCaml 5 memory-model invariants: stripe
   and queue locks are never nested into a cycle, node fields are published
   write-once behind a fence, futures are claimed exactly once, DLS memo
   caches never leak entries across scopes.  No existing tool checks any of
   that, so this module does: the instrumented code reports events through
   the shims below, and each rule is checked online against a small state
   machine.

   Cost model: every entry point starts with [if not (enabled ()) then ()]
   — one atomic load and a branch, like Obs — so the shims stay permanently
   compiled into the hot paths.  When enabled, the rare events (lock
   acquisitions, node publications, future claims) take the sanitizer
   mutex; the frequent ones (node reads, cache hits) are checked with plain
   loads against write-once state and only lock on an *apparent*
   violation.

   False-positive discipline: the checker polices a relaxed memory model,
   so its own observations can race the protocol it checks.  Two design
   rules keep it sound:
   - state only ever strengthens (unknown -> wrote -> fenced -> published),
     and rules fire only on positively observed breaks — an id the
     sanitizer never saw written (consed before enabling, or by an
     uninstrumented path) is exempt;
   - before reporting a publication-order violation observed through a
     plain read, the checker re-reads under its own mutex with bounded
     backoff ([confirm_retries]); a racy-but-correct writer resolves in a
     handful of iterations, while a genuinely dropped fence stays broken
     forever and is reported.

   Findings reuse the Verify report shape; tallies publish as sanitize.*
   metrics. *)

type severity = Error | Warning

type finding = {
  rule_id : string;
  severity : severity;
  sites : string list;
  message : string;
}

(* --- enable gate --------------------------------------------------------------- *)

let on = Atomic.make false

let enabled () = Atomic.get on
let enable () = Atomic.set on true
let disable () = Atomic.set on false

(* SANITIZE=1 in the environment arms the sanitizer before any flow code
   runs, covering binaries that grew no --sanitize flag. *)
let () =
  match Sys.getenv_opt "SANITIZE" with
  | Some s when s <> "" && s <> "0" -> enable ()
  | Some _ | None -> ()

(* --- metrics -------------------------------------------------------------------- *)

let m_lock_acquires = Obs.Metrics.counter "sanitize.lock.acquires"
let m_lock_edges = Obs.Metrics.counter "sanitize.lock.edges"
let m_pub_writes = Obs.Metrics.counter "sanitize.pub.writes"
let m_pub_reads = Obs.Metrics.counter "sanitize.pub.reads"
let m_future_claims = Obs.Metrics.counter "sanitize.future.claims"
let m_dls_hits = Obs.Metrics.counter "sanitize.dls.hits"
let m_findings = Obs.Metrics.counter "sanitize.findings"

(* --- findings ------------------------------------------------------------------- *)

(* All mutable checker state below is guarded by [state_lock] (a raw mutex:
   the sanitizer must not instrument itself).  Findings are deduplicated on
   (rule_id, sites) so a hot loop hitting the same broken site reports it
   once. *)
let state_lock = Mutex.create ()

let max_findings = 200

let findings_tbl : (string * string list, finding) Hashtbl.t =
  Hashtbl.create 16

let locked f =
  Mutex.lock state_lock;
  match f () with
  | v ->
    Mutex.unlock state_lock;
    v
  | exception e ->
    Mutex.unlock state_lock;
    raise e

(* must be called with [state_lock] held *)
let record_locked fdg =
  let key = (fdg.rule_id, fdg.sites) in
  if
    (not (Hashtbl.mem findings_tbl key))
    && Hashtbl.length findings_tbl < max_findings
  then begin
    Hashtbl.add findings_tbl key fdg;
    Obs.Metrics.incr m_findings
  end

let record fdg = locked (fun () -> record_locked fdg)

let findings () =
  let all =
    locked (fun () ->
        (* lint-waive: nondet/hashtbl-order — the fold result is fully sorted
           on (severity, rule_id, sites) below, so hash order is dead. *)
        Hashtbl.fold (fun _ f acc -> f :: acc) findings_tbl [])
  in
  let rank = function Error -> 0 | Warning -> 1 in
  List.sort
    (fun a b ->
      compare
        (rank a.severity, a.rule_id, a.sites)
        (rank b.severity, b.rule_id, b.sites))
    all

let severity_string = function Error -> "error" | Warning -> "warning"

let render fs =
  String.concat "\n"
    (List.map
       (fun f ->
         Printf.sprintf "%s[%s] sites %s: %s"
           (severity_string f.severity)
           f.rule_id
           (String.concat "," f.sites)
           f.message)
       fs)

let render_json fs =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i f ->
      Buffer.add_string buf
        (Printf.sprintf
           "  { \"rule_id\": %S, \"severity\": %S, \"sites\": [%s], \
            \"message\": %S }%s\n"
           f.rule_id
           (severity_string f.severity)
           (String.concat ", "
              (List.map (fun s -> Printf.sprintf "%S" s) f.sites))
           f.message
           (if i = List.length fs - 1 then "" else ",")))
    fs;
  Buffer.add_string buf "]";
  Buffer.contents buf

(* --- rule 1: lock-order acyclicity ---------------------------------------------- *)

module Lock = struct
  type t = {
    real : Mutex.t;
    uid : int;
    name : string;
    order : int;
  }

  let next_uid = Atomic.make 1

  (* uid -> name, for rendering cycles *)
  let names : (int, string) Hashtbl.t = Hashtbl.create 64

  (* held-lock uids of the current domain, innermost first *)
  let held_key : int list ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref [])

  (* lock graph: (from uid, to uid) -> acquiring backtrace.  Edges only
     appear on *nested* acquisition, which the instrumented code never does
     on its hot paths, so this table stays tiny. *)
  let edges : (int * int, string) Hashtbl.t = Hashtbl.create 16

  let create ~order ~name =
    let uid = Atomic.fetch_and_add next_uid 1 in
    locked (fun () -> Hashtbl.replace names uid name);
    { real = Mutex.create (); uid; name; order }

  let name_of uid =
    match Hashtbl.find_opt names uid with
    | Some n -> n
    | None -> Printf.sprintf "lock#%d" uid

  (* Cycle through the just-added edge [u -> v]: path from v back to u over
     the edge set.  Called with [state_lock] held. *)
  let find_cycle u v =
    let visited = Hashtbl.create 16 in
    let rec dfs path node =
      if node = u then Some (List.rev (node :: path))
      else if Hashtbl.mem visited node then None
      else begin
        Hashtbl.add visited node ();
        (* lint-waive: nondet/hashtbl-order — the reachability answer is
           independent of edge enumeration order; the reported cycle is one
           witness among equals. *)
        Hashtbl.fold
          (fun (a, b) _ acc ->
            match acc with
            | Some _ -> acc
            | None -> if a = node then dfs (node :: path) b else None)
          edges None
      end
    in
    dfs [] v

  let add_edge hu vu =
    locked (fun () ->
        if not (Hashtbl.mem edges (hu, vu)) then begin
          let bt =
            Printexc.raw_backtrace_to_string (Printexc.get_callstack 16)
          in
          Hashtbl.replace edges (hu, vu) bt;
          Obs.Metrics.incr m_lock_edges;
          match find_cycle hu vu with
          | None -> ()
          | Some cycle ->
            (* [cycle] runs vu -> ... -> hu; prepending hu closes it over
               the new edge, so consecutive pairs are exactly its edges *)
            let cycle_names = List.map name_of cycle in
            let cycle_edges =
              let rec pairs = function
                | a :: (b :: _ as rest) -> (a, b) :: pairs rest
                | [ _ ] | [] -> []
              in
              pairs (hu :: cycle)
            in
            let backtraces =
              String.concat "\n"
                (List.map
                   (fun (a, b) ->
                     Printf.sprintf "  edge %s -> %s acquired at:\n%s"
                       (name_of a) (name_of b)
                       (match Hashtbl.find_opt edges (a, b) with
                        | Some s -> s
                        | None -> "    <no backtrace>"))
                   cycle_edges)
            in
            record_locked
              { rule_id = "lock/cycle";
                severity = Error;
                sites = List.sort compare cycle_names;
                message =
                  Printf.sprintf
                    "lock-order cycle %s: a domain holding one end while \
                     another holds the other deadlocks\n%s"
                    (String.concat " -> " (name_of hu :: cycle_names))
                    backtraces }
        end)

  let note_acquired t =
    Obs.Metrics.incr m_lock_acquires;
    let held = Domain.DLS.get held_key in
    List.iter (fun hu -> if hu <> t.uid then add_edge hu t.uid) !held;
    held := t.uid :: !held

  let note_released t =
    let held = Domain.DLS.get held_key in
    held := List.filter (fun u -> u <> t.uid) !held

  let lock t =
    Mutex.lock t.real;
    if enabled () then note_acquired t

  let try_lock t =
    let got = Mutex.try_lock t.real in
    if got && enabled () then note_acquired t;
    got

  let unlock t =
    if enabled () then note_released t;
    Mutex.unlock t.real

  (* The condition atomically releases and reacquires [t.real]; from the
     caller's (and the discipline's) point of view the lock is held for the
     whole wait, so the held set is left untouched. *)
  let wait cond t = Condition.wait cond t.real
end

(* --- rule 2: write-once publication --------------------------------------------- *)

module Pub = struct
  (* Per-(table, id) protocol state, one byte per node:
     0 = unknown (never observed), 1 = wrote, 2 = fenced, 3 = published.
     State only strengthens, and all transitions happen under [state_lock];
     the read fast path peeks at the byte with a plain load and escalates
     to the locked, retrying path only when it does not see >= fenced. *)
  let st_wrote = Char.chr 1
  let st_fenced = Char.chr 2
  let st_published = Char.chr 3

  (* table uid -> flag bytes; the outer array is swapped whole on growth so
     lock-free readers always traverse a consistent snapshot *)
  let stores : Bytes.t Atomic.t option array Atomic.t = Atomic.make [||]

  let site table id = Printf.sprintf "%d:%d" table id

  (* with [state_lock] held: the store for [table], grown to cover [id] *)
  let store_locked table id =
    let arr = Atomic.get stores in
    let arr =
      if table < Array.length arr then arr
      else begin
        let fresh = Array.make (max 16 ((table + 1) * 2)) None in
        Array.blit arr 0 fresh 0 (Array.length arr);
        Atomic.set stores fresh;
        fresh
      end
    in
    let cell =
      match arr.(table) with
      | Some c -> c
      | None ->
        let c = Atomic.make (Bytes.make 1024 '\000') in
        arr.(table) <- Some c;
        c
    in
    let b = Atomic.get cell in
    if id < Bytes.length b then b
    else begin
      let fresh = Bytes.make (max (2 * Bytes.length b) (id + 1)) '\000' in
      Bytes.blit b 0 fresh 0 (Bytes.length b);
      Atomic.set cell fresh;
      fresh
    end

  let get_state_locked table id =
    let b = store_locked table id in
    Char.code (Bytes.get b id)

  let set_state_locked table id st =
    let b = store_locked table id in
    Bytes.set b id st

  let wrote ~table ~id =
    if enabled () then begin
      Obs.Metrics.incr m_pub_writes;
      locked (fun () ->
          if get_state_locked table id <> 0 then
            record_locked
              { rule_id = "pub/double-write";
                severity = Error;
                sites = [ site table id ];
                message =
                  "node fields written twice: the store is write-once and \
                   readers validate against the first value" }
          else set_state_locked table id st_wrote)
    end

  let fenced ~table ~id =
    if enabled () then
      locked (fun () ->
          (* state only strengthens; state 0 means the write event predated
             enabling, which we adopt *)
          if get_state_locked table id < 2 then
            set_state_locked table id st_fenced)

  let published ~table ~id =
    if enabled () then
      locked (fun () ->
          match get_state_locked table id with
          | 1 ->
            record_locked
              { rule_id = "pub/unfenced-publish";
                severity = Error;
                sites = [ site table id ];
                message =
                  "node id published into a unique-table slot without \
                   fencing the publication counter: a concurrent reader \
                   may observe the id before its fields" }
          | _ -> set_state_locked table id st_published)

  (* Bounded confirmation: a plain-load observation below the fence may be
     stale (the sanitizer itself reads racily); re-check under the mutex
     with backoff before believing it.  A correct writer fences within
     nanoseconds; a dropped fence never resolves and is reported. *)
  let confirm_retries = 50_000

  let rec confirm_read table id tries =
    let st = locked (fun () -> get_state_locked table id) in
    if st >= 2 || st = 0 then ()
    else if tries < confirm_retries then begin
      Domain.cpu_relax ();
      confirm_read table id (tries + 1)
    end
    else
      record
        { rule_id = "pub/unfenced-read";
          severity = Error;
          sites = [ site table id ];
          message =
            "reader trusted a node id whose publication never fenced the \
             publication counter: its field reads are unordered against \
             the writer" }

  let read ~table ~id =
    if enabled () then begin
      Obs.Metrics.incr m_pub_reads;
      let ok =
        (* lock-free peek; anything not >= fenced escalates *)
        let arr = Atomic.get stores in
        table < Array.length arr
        &&
        match Array.unsafe_get arr table with
        | None -> false
        | Some cell ->
          let b = Atomic.get cell in
          id < Bytes.length b && Char.code (Bytes.unsafe_get b id) >= 2
      in
      if not ok then begin
        (* state 0 (unseen id) is legal — resolved inside confirm_read *)
        confirm_read table id 0
      end
    end
end

(* --- rule 3: single-claim futures ----------------------------------------------- *)

module Future = struct
  type status = Claimed of int

  let next = Atomic.make 1

  let claims : (int, status) Hashtbl.t = Hashtbl.create 64

  let fresh () = Atomic.fetch_and_add next 1

  let claimed_by ~fut ~domain =
    if enabled () && fut <> 0 then begin
      Obs.Metrics.incr m_future_claims;
      locked (fun () ->
          match Hashtbl.find_opt claims fut with
          | Some (Claimed d) ->
            record_locked
              { rule_id = "future/double-claim";
                severity = Error;
                sites = [ string_of_int fut ];
                message =
                  Printf.sprintf
                    "future claimed to Running twice (domains %d and %d): \
                     only the Pending -> Running CAS may claim, exactly \
                     once"
                    d domain }
          | None -> Hashtbl.replace claims fut (Claimed domain))
    end

  let completed_by ~fut ~domain =
    if enabled () && fut <> 0 then
      locked (fun () ->
          match Hashtbl.find_opt claims fut with
          | Some (Claimed d) when d = domain ->
            (* claim discharged; drop the entry to bound the table *)
            Hashtbl.remove claims fut
          | Some (Claimed d) ->
            record_locked
              { rule_id = "future/foreign-done";
                severity = Error;
                sites = [ string_of_int fut ];
                message =
                  Printf.sprintf
                    "future completed (Done) by domain %d but claimed by \
                     domain %d: only the claimant may publish the result"
                    domain d }
          | None ->
            record_locked
              { rule_id = "future/foreign-done";
                severity = Error;
                sites = [ string_of_int fut ];
                message =
                  Printf.sprintf
                    "future completed (Done) by domain %d without any \
                     recorded claim: Done must be written by the claimant \
                     after its Pending -> Running CAS"
                    domain })

  (* lint-waive: nondet/domain-id — the claimant identity feeds only the
     sanitizer's claim ledger and diagnostics, never flow results. *)
  let claimed ~fut = claimed_by ~fut ~domain:(Domain.self () :> int)

  (* lint-waive: nondet/domain-id — same: diagnostics only. *)
  let completed ~fut = completed_by ~fut ~domain:(Domain.self () :> int)
end

(* --- rule 4: DLS cache scope stamps --------------------------------------------- *)

module Dls = struct
  let cache_hit ~entry_uid ~scope_uid =
    if enabled () then begin
      Obs.Metrics.incr m_dls_hits;
      if entry_uid <> scope_uid then
        record
          { rule_id = "dls/cross-scope-hit";
            severity = Error;
            sites =
              [ Printf.sprintf "entry:%d" entry_uid;
                Printf.sprintf "scope:%d" scope_uid ];
            message =
              "DLS memo-cache entry stamped by one scope served a hit to \
               another: node-accounting charges leak across scopes and \
               budgets stop being warmth-independent" }
    end
end

(* --- reset / stats --------------------------------------------------------------- *)

let reset () =
  locked (fun () ->
      Hashtbl.reset findings_tbl;
      Hashtbl.reset Lock.edges;
      Hashtbl.reset Future.claims;
      Atomic.set Pub.stores [||])

let publish_stats () =
  let g name v =
    Obs.Metrics.set_gauge (Obs.Metrics.gauge name) (float_of_int v)
  in
  g "sanitize.enabled" (if enabled () then 1 else 0);
  g "sanitize.findings.total" (List.length (findings ()));
  g "sanitize.lock.graph_edges" (locked (fun () -> Hashtbl.length Lock.edges))
