module J = Obs.Json

type config = {
  queue_capacity : int;
  max_netlist_bytes : int;
  default_timeout_s : float option;
  retry_after_ms : int;
}

let default_config =
  { queue_capacity = 8;
    max_netlist_bytes = 4 * 1024 * 1024;
    default_timeout_s = None;
    retry_after_ms = 100 }

(* cooperative interruption, raised from the pass-boundary hook *)
exception Cancelled
exception Deadline_exceeded

type job_state =
  | Queued
  | Running
  | Completed of J.t
  | Failed of string * string  (* protocol error code, detail *)
  | Cancelled_s
  | Timed_out_s

type job_source =
  | Net of {
      key : string;  (* warm-cache key *)
      name : string;
      build : unit -> Netlist.Network.t;
      opts : Protocol.submit_options;
    }
  | Held of bool Atomic.t

type job = {
  id : string;
  source : job_source;
  state : job_state Atomic.t;
  cancel : bool Atomic.t;
  passes : int Atomic.t;  (* pass-boundary crossings seen by the guard *)
  diag : J.t Atomic.t;    (* set once, when the job reaches a terminal state *)
}

(* the engine's shared tables, reachable only under their lock *)
type tables = {
  jobs : (string, job) Hashtbl.t;
  nets : (string, Netlist.Network.t) Hashtbl.t;  (* pristine, never mutated *)
  mutable futures : unit Core.Parallel.future list;
}

type t = {
  config : config;
  tables : tables Obs.Locked.t;
  inflight : int Atomic.t;  (* queued + running *)
  next_id : int Atomic.t;
}

(* --- metrics ------------------------------------------------------------------------ *)

let m_requests = Obs.Metrics.counter "serve.requests"
let m_accepted = Obs.Metrics.counter "serve.jobs.accepted"
let m_rejected = Obs.Metrics.counter "serve.jobs.rejected"
let m_completed = Obs.Metrics.counter "serve.jobs.completed"
let m_failed = Obs.Metrics.counter "serve.jobs.failed"
let m_cancelled = Obs.Metrics.counter "serve.jobs.cancelled"
let m_timed_out = Obs.Metrics.counter "serve.jobs.timeout"
let m_cache_hits = Obs.Metrics.counter "serve.cache.hits"
let m_cache_misses = Obs.Metrics.counter "serve.cache.misses"
let g_inflight = Obs.Metrics.gauge "serve.inflight"

(* --- construction ------------------------------------------------------------------- *)

let create ?(config = default_config) () =
  { config;
    tables =
      Obs.Locked.create
        { jobs = Hashtbl.create 64; nets = Hashtbl.create 16; futures = [] };
    inflight = Atomic.make 0;
    next_id = Atomic.make 1 }

let config eng = eng.config

let inflight eng = Atomic.get eng.inflight

(* --- job execution ------------------------------------------------------------------ *)

(* The pass-boundary hook: placed before the flow's own hooks, so a cancel
   or blown deadline stops the request before any verifier work runs.  It
   checks as an in-place pass starts and once a fresh network is built.
   Raising here unwinds the job task; every network the flow touched is the
   job's private copy, so shared state stays clean. *)
let guard job ~cancel_after ~deadline =
  let check () =
    let crossed = 1 + Atomic.fetch_and_add job.passes 1 in
    (match cancel_after with
     | Some k when crossed >= k -> Atomic.set job.cancel true
     | Some _ | None -> ());
    if Atomic.get job.cancel then raise Cancelled;
    match deadline with
    | Some d ->
      (* lint-waive: nondet/wall-clock — deadline check; timeouts are inherently wall-clock and never reach the result payload *)
      if Unix.gettimeofday () > d then raise Deadline_exceeded
    | None -> ()
  in
  fun b ->
    if b.Verify.in_place then check ();
    fun _ -> if not b.Verify.in_place then check ()

(* Pristine networks are cached across requests; each request works on its
   own copy.  Both the cache lookup and the copy run under the engine lock:
   [Netlist.Network.copy] reads the source's lazily cached topological
   order, so two unserialized copies of the same pristine net would race. *)
let checkout eng key build =
  Obs.Locked.use eng.tables (fun tb ->
      let pristine =
        match Hashtbl.find_opt tb.nets key with
        | Some net ->
          Obs.Metrics.incr m_cache_hits;
          net
        | None ->
          let net = build () in
          Obs.Metrics.incr m_cache_misses;
          Hashtbl.replace tb.nets key net;
          net
      in
      Netlist.Network.copy pristine)

let stats_json (s : Core.Flow.stats) =
  J.Obj
    [ ("regs", J.Int s.Core.Flow.regs);
      ("clk", J.Float (Netlist.Delay.to_float s.Core.Flow.clk));
      ("area", J.Float s.Core.Flow.area) ]

let attempt_json (a : Core.Flow.attempt) =
  J.Obj
    [ ( "stats",
        match a.Core.Flow.stats with
        | Some s -> stats_json s
        | None -> J.Null );
      ("note", J.Str a.Core.Flow.note);
      ( "check",
        match a.Core.Flow.verified with
        | Some v -> J.Str (Eqcheck.verdict_name v)
        | None -> J.Null ) ]

(* The deterministic result payload: everything here is a pure function of
   the submitted netlist and options.  [row] is the Table I line rendered by
   the one-shot [table1] binary, byte for byte — the CI smoke test compares
   the two directly. *)
let payload_of_row (row : Core.Flow.row) =
  let proved, refuted, unknown = Eqcheck.counts row.Core.Flow.eqcheck in
  J.Obj
    [ ("row", J.Str (Report.Table.row_to_string row));
      ("circuit", J.Str row.Core.Flow.circuit);
      ("base", stats_json row.Core.Flow.base);
      ("retimed", attempt_json row.Core.Flow.retimed);
      ("resynthesized", attempt_json row.Core.Flow.resynthesized);
      ( "resynthesis",
        match row.Core.Flow.resynth_outcome with
        | Some o ->
          J.Obj
            [ ("applied", J.Bool o.Core.Resynth.applied);
              ("stem_splits", J.Int o.Core.Resynth.stem_splits);
              ("classes", J.Int o.Core.Resynth.equivalence_classes);
              ("moves", J.Int o.Core.Resynth.forward_moves);
              ("simplified_cones", J.Int o.Core.Resynth.simplified_cones) ]
        | None -> J.Null );
      ( "eqcheck",
        J.Obj
          [ ("proved", J.Int proved);
            ("refuted", J.Int refuted);
            ("unknown", J.Int unknown) ] );
      ("verify_diags", J.Int (List.length row.Core.Flow.verify_diags)) ]

let metric_value_json = function
  | Obs.Metrics.Counter i -> J.Int i
  | Obs.Metrics.Gauge f -> J.Float f
  | Obs.Metrics.Histogram h ->
    J.Obj
      [ ("count", J.Int h.Obs.Metrics.count);
        ("sum", J.Int h.Obs.Metrics.sum);
        ("max", J.Int h.Obs.Metrics.max_value) ]
  | Obs.Metrics.Info s -> J.Str s

(* Everything nondeterministic about a request — wall time and the metrics
   window — lands here, never in the result payload. *)
let diag_json job ~t0 snap =
  (* lint-waive: nondet/wall-clock — elapsed time feeds only the diagnostics op *)
  let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  J.Obj
    [ ("elapsed_ms", J.Float elapsed_ms);
      ("passes", J.Int (Atomic.get job.passes));
      ( "metrics",
        J.Obj
          (List.map
             (fun (name, v) -> (name, metric_value_json v))
             (Obs.Metrics.delta snap)) ) ]

let finish eng job state counter =
  Atomic.set job.state state;
  Obs.Metrics.incr counter;
  let left = Atomic.fetch_and_add eng.inflight (-1) - 1 in
  Obs.Metrics.set_gauge g_inflight (float_of_int left)

let run_job eng job =
  Atomic.set job.state Running;
  (* lint-waive: nondet/wall-clock — job start time feeds deadlines and diagnostics only *)
  let t0 = Unix.gettimeofday () in
  let snap = Obs.Metrics.snapshot () in
  match job.source with
  | Held release ->
    while not (Atomic.get release || Atomic.get job.cancel) do
      Domain.cpu_relax ()
    done;
    Atomic.set job.diag (diag_json job ~t0 snap);
    if Atomic.get release then
      finish eng job (Completed (J.Obj [ ("held", J.Bool true) ])) m_completed
    else finish eng job Cancelled_s m_cancelled
  | Net { key; name; build; opts } ->
    let deadline =
      match opts.Protocol.timeout_s with
      | Some s -> Some (t0 +. s)
      | None ->
        (match eng.config.default_timeout_s with
         | Some s -> Some (t0 +. s)
         | None -> None)
    in
    let guard =
      guard job ~cancel_after:opts.Protocol.cancel_after_passes ~deadline
    in
    (try
       let net =
         Obs.Trace.span ~cat:"serve"
           ~args:[ ("request", Obs.Trace.Str job.id) ]
           ("serve/checkout/" ^ name)
           (fun () -> checkout eng key build)
       in
       let row =
         Obs.Trace.span ~cat:"serve"
           ~args:[ ("request", Obs.Trace.Str job.id) ]
           ("serve/flow/" ^ name)
           (fun () ->
             Core.Flow.run_all ~verify:opts.Protocol.verify
               ~verify_each:opts.Protocol.verify_each
               ~eqcheck_each:opts.Protocol.eqcheck_each ~hooks:[ guard ]
               ~name net)
       in
       let payload = payload_of_row row in
       Atomic.set job.diag (diag_json job ~t0 snap);
       finish eng job (Completed payload) m_completed
     with e ->
       Atomic.set job.diag (diag_json job ~t0 snap);
       (match e with
        | Cancelled -> finish eng job Cancelled_s m_cancelled
        | Deadline_exceeded -> finish eng job Timed_out_s m_timed_out
        | Verify.Verification_failed msg ->
          finish eng job (Failed ("verify-failed", msg)) m_failed
        | e ->
          finish eng job (Failed ("flow-error", Printexc.to_string e))
            m_failed))

(* --- admission ---------------------------------------------------------------------- *)

let register_and_fork eng ~id source =
  let id =
    match id with
    | Some id -> id
    | None -> Printf.sprintf "r-%d" (Atomic.fetch_and_add eng.next_id 1)
  in
  let job =
    { id;
      source;
      state = Atomic.make Queued;
      cancel = Atomic.make false;
      passes = Atomic.make 0;
      diag = Atomic.make (J.Obj []) }
  in
  let fresh =
    Obs.Locked.use eng.tables (fun tb ->
        if Hashtbl.mem tb.jobs id then false
        else begin
          Hashtbl.replace tb.jobs id job;
          true
        end)
  in
  if not fresh then
    Protocol.error ~code:"duplicate-id"
      ~detail:(Printf.sprintf "request id %S already exists" id)
  else begin
    Obs.Metrics.incr m_accepted;
    let now = Atomic.fetch_and_add eng.inflight 1 + 1 in
    Obs.Metrics.set_gauge g_inflight (float_of_int now);
    let fut = Core.Parallel.fork (fun () -> run_job eng job) in
    Obs.Locked.use eng.tables (fun tb -> tb.futures <- fut :: tb.futures);
    Protocol.ok [ ("id", J.Str id); ("state", J.Str "queued") ]
  end

let reject_if_full eng k =
  Obs.Metrics.incr m_requests;
  if Atomic.get eng.inflight >= eng.config.queue_capacity then begin
    Obs.Metrics.incr m_rejected;
    Protocol.error_retry ~code:"queue-full"
      ~detail:
        (Printf.sprintf "%d requests in flight (capacity %d)"
           (Atomic.get eng.inflight) eng.config.queue_capacity)
      ~retry_after_ms:eng.config.retry_after_ms
  end
  else k ()

let submit eng ~id source opts =
  reject_if_full eng @@ fun () ->
  match source with
  | Protocol.Benchmark name ->
    (match Circuits.Suite.unknown_names [ name ] with
     | [] ->
       register_and_fork eng ~id
         (Net
            { key = "bench:" ^ name;
              name;
              build = (fun () -> (Circuits.Suite.find name).Circuits.Suite.build ());
              opts })
     | _ ->
       Obs.Metrics.incr m_rejected;
       Protocol.error ~code:"unknown-benchmark"
         ~detail:
           (Printf.sprintf "no suite entry %S; valid names: %s" name
              (String.concat ", " Circuits.Suite.names)))
  | Protocol.Blif text ->
    (* parse once now for a synchronous structured error; the job's build
       re-parses into the warm cache, so repeat submissions hit it *)
    (match Netlist.Blif.parse_string text with
     | exception Failure msg ->
       Obs.Metrics.incr m_rejected;
       Protocol.error ~code:"parse-error" ~detail:msg
     | parsed ->
       let name = Netlist.Network.model_name parsed in
       let key = "blif:" ^ Digest.to_hex (Digest.string text) in
       register_and_fork eng ~id
         (Net
            { key;
              name;
              build = (fun () -> Netlist.Blif.parse_string text);
              opts }))

let submit_held eng ~id ~release =
  reject_if_full eng @@ fun () -> register_and_fork eng ~id (Held release)

(* --- inspection --------------------------------------------------------------------- *)

let find_job eng id =
  Obs.Locked.use eng.tables (fun tb -> Hashtbl.find_opt tb.jobs id)

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Completed _ -> "done"
  | Failed _ -> "failed"
  | Cancelled_s -> "cancelled"
  | Timed_out_s -> "timed-out"

let with_job eng id k =
  Obs.Metrics.incr m_requests;
  match find_job eng id with
  | None ->
    Protocol.error ~code:"unknown-id"
      ~detail:(Printf.sprintf "no request with id %S" id)
  | Some job -> k job

let status eng id =
  with_job eng id @@ fun job ->
  Protocol.ok
    [ ("id", J.Str id); ("state", J.Str (state_name (Atomic.get job.state))) ]

let result eng id =
  with_job eng id @@ fun job ->
  match Atomic.get job.state with
  | Completed payload -> Protocol.ok [ ("id", J.Str id); ("result", payload) ]
  | Failed (code, detail) -> Protocol.error ~code ~detail
  | Cancelled_s ->
    Protocol.error ~code:"cancelled" ~detail:"the request was cancelled"
  | Timed_out_s ->
    Protocol.error ~code:"timeout" ~detail:"the request exceeded its deadline"
  | (Queued | Running) as s ->
    Protocol.error ~code:"not-ready"
      ~detail:("the request is " ^ state_name s)

let diagnostics eng id =
  with_job eng id @@ fun job ->
  Protocol.ok
    [ ("id", J.Str id);
      ("state", J.Str (state_name (Atomic.get job.state)));
      ("diagnostics", Atomic.get job.diag) ]

let cancel eng id =
  with_job eng id @@ fun job ->
  Atomic.set job.cancel true;
  Protocol.ok
    [ ("id", J.Str id);
      ("state", J.Str (state_name (Atomic.get job.state)));
      ("cancel_requested", J.Bool true) ]

let ping _eng =
  Obs.Metrics.incr m_requests;
  Protocol.ok [ ("pong", J.Bool true) ]

let drain eng =
  let pending = Obs.Locked.use eng.tables (fun tb -> tb.futures) in
  (* tasks never leak exceptions (run_job catches everything), but a drain
     during shutdown must not die on principle either *)
  List.iter (fun f -> ignore (Core.Parallel.join_result f)) (List.rev pending)

let handle eng = function
  | Protocol.Ping -> Some (ping eng)
  | Protocol.Submit { id; source; opts } -> Some (submit eng ~id source opts)
  | Protocol.Status id -> Some (status eng id)
  | Protocol.Result id -> Some (result eng id)
  | Protocol.Diagnostics id -> Some (diagnostics eng id)
  | Protocol.Cancel id -> Some (cancel eng id)
  | Protocol.Metrics | Protocol.Stream_spans | Protocol.Shutdown _ -> None
