type attr =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool

type span = {
  name : string;
  cat : string;
  track : int;
  depth : int;
  start_ns : int64;
  dur_ns : int64;
  minor_words : float;
  major_words : float;
  args : (string * attr) list;
}

(* One atomic load on the disabled fast path; flipped only at startup or
   around an export, never per event. *)
let on = Atomic.make false

let enabled () = Atomic.get on
let enable () = Atomic.set on true
let disable () = Atomic.set on false

let clock_override : (unit -> int64) option Atomic.t = Atomic.make None

let set_clock f = Atomic.set clock_override f

(* gettimeofday-based: the stdlib exposes no monotonic clock, so negative
   steps (NTP slew) are clamped per span instead. *)
let now_ns () =
  match Atomic.get clock_override with
  | Some f -> f ()
  | None -> Int64.of_float (Unix.gettimeofday () *. 1e9) (* lint-waive: nondet/wall-clock — span timestamps only, never results *)

let lock = Mutex.create ()
let recorded : span list ref = ref []

(* Completed spans can additionally stream to registered sinks (the
   resynthesis daemon flushes them to a file or a subscribed client as
   they finish, instead of holding the whole trace in memory).  Sinks run
   under [sink_lock], so deliveries are serialized; a sink must never call
   back into this module (the mutex is not reentrant). *)
type sink = {
  on_span : span -> unit;
  on_flush : unit -> unit;
}

let sink_lock = Mutex.create ()
let sinks : (int * sink) list ref = ref []
let next_sink_id = ref 1

(* [buffering] off drops the in-memory span list (sinks still fire): a
   long-running daemon would otherwise grow the buffer without bound. *)
let buffering = Atomic.make true

let set_buffering b = Atomic.set buffering b
let buffering_enabled () = Atomic.get buffering

let add_sink sink =
  Mutex.lock sink_lock;
  let id = !next_sink_id in
  next_sink_id := id + 1;
  sinks := !sinks @ [ (id, sink) ];
  Mutex.unlock sink_lock;
  id

let remove_sink id =
  Mutex.lock sink_lock;
  sinks := List.filter (fun (i, _) -> i <> id) !sinks;
  Mutex.unlock sink_lock

let flush_sinks () =
  Mutex.lock sink_lock;
  List.iter (fun (_, s) -> s.on_flush ()) !sinks;
  Mutex.unlock sink_lock

let deliver s =
  Mutex.lock sink_lock;
  List.iter (fun (_, k) -> k.on_span s) !sinks;
  Mutex.unlock sink_lock

let record s =
  if Atomic.get buffering then begin
    Mutex.lock lock;
    recorded := s :: !recorded;
    Mutex.unlock lock
  end;
  deliver s

let reset () =
  Mutex.lock lock;
  recorded := [];
  Mutex.unlock lock

let depth_key = Domain.DLS.new_key (fun () -> ref 0)

let depth () = !(Domain.DLS.get depth_key)

let finish_span ~name ~cat ~args ~my_depth ~t0 ~g0 =
  let t1 = now_ns () in
  let g1 = Gc.quick_stat () in
  record
    { name;
      cat;
      (* lint-waive: nondet/domain-id — the track id labels which worker
         ran the span on the trace timeline; spans never feed results. *)
      track = (Domain.self () :> int);
      depth = my_depth;
      start_ns = t0;
      dur_ns = (let d = Int64.sub t1 t0 in if Int64.compare d 0L < 0 then 0L else d);
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      major_words = g1.Gc.major_words -. g0.Gc.major_words;
      args }

let span ?(cat = "span") ?(args = []) ?end_args name f =
  if not (Atomic.get on) then f ()
  else begin
    let d = Domain.DLS.get depth_key in
    let my_depth = !d in
    d := my_depth + 1;
    let g0 = Gc.quick_stat () in
    let t0 = now_ns () in
    let finish () =
      d := my_depth;
      let args =
        match end_args with None -> args | Some more -> args @ more ()
      in
      finish_span ~name ~cat ~args ~my_depth ~t0 ~g0
    in
    match f () with
    | v -> finish (); v
    | exception e -> finish (); raise e
  end

let instant ?(cat = "mark") ?(args = []) name =
  if Atomic.get on then begin
    let t0 = now_ns () in
    record
      { name;
        cat;
        (* lint-waive: nondet/domain-id — timeline track label only. *)
        track = (Domain.self () :> int);
        depth = depth ();
        start_ns = t0;
        dur_ns = 0L;
        minor_words = 0.0;
        major_words = 0.0;
        args }
  end

let spans () =
  Mutex.lock lock;
  let all = !recorded in
  Mutex.unlock lock;
  List.sort
    (fun a b ->
      let c = compare a.track b.track in
      if c <> 0 then c
      else
        let c = Int64.compare a.start_ns b.start_ns in
        if c <> 0 then c else compare a.depth b.depth)
    all
