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

let recorded : span list ref Locked.t = Locked.create (ref [])

(* Completed spans can additionally stream to registered sinks (the
   resynthesis daemon flushes them to a file or a subscribed client as
   they finish, instead of holding the whole trace in memory).  Sinks run
   under the registry's lock, so deliveries are serialized; a sink must
   never call back into this module (the mutex is not reentrant).  A sink
   that raises releases the lock on its way out. *)
type sink = {
  on_span : span -> unit;
  on_flush : unit -> unit;
}

type sinks = {
  mutable registered : (int * sink) list;
  mutable next_id : int;
}

let sinks = Locked.create { registered = []; next_id = 1 }

(* [buffering] off drops the in-memory span list (sinks still fire): a
   long-running daemon would otherwise grow the buffer without bound. *)
let buffering = Atomic.make true

let set_buffering b = Atomic.set buffering b

let add_sink sink =
  Locked.use sinks (fun r ->
      let id = r.next_id in
      r.next_id <- id + 1;
      r.registered <- r.registered @ [ (id, sink) ];
      id)

let remove_sink id =
  Locked.use sinks (fun r ->
      r.registered <- List.filter (fun (i, _) -> i <> id) r.registered)

let flush_sinks () =
  Locked.use sinks (fun r -> List.iter (fun (_, s) -> s.on_flush ()) r.registered)

let deliver s =
  Locked.use sinks (fun r -> List.iter (fun (_, k) -> k.on_span s) r.registered)

let record s =
  if Atomic.get buffering then
    Locked.use recorded (fun spans -> spans := s :: !spans);
  deliver s

let reset () = Locked.use recorded (fun spans -> spans := [])

let depth_key = Domain.DLS.new_key (fun () -> ref 0)

let depth () = !(Domain.DLS.get depth_key)

(* [Gc.counters] reads the calling domain's own allocation counters;
   [Gc.quick_stat] would sum over every running domain, so a span would
   also count what other workers allocated while it ran. *)
let finish_span ~name ~cat ~args ~my_depth ~t0 ~minor0 ~major0 =
  let t1 = now_ns () in
  let minor1, _, major1 = Gc.counters () in
  record
    { name;
      cat;
      (* lint-waive: nondet/domain-id — the track id labels which worker
         ran the span on the trace timeline; spans never feed results. *)
      track = (Domain.self () :> int);
      depth = my_depth;
      start_ns = t0;
      dur_ns = (let d = Int64.sub t1 t0 in if Int64.compare d 0L < 0 then 0L else d);
      minor_words = minor1 -. minor0;
      major_words = major1 -. major0;
      args }

let span ?(cat = "span") ?(args = []) ?end_args name f =
  if not (Atomic.get on) then f ()
  else begin
    let d = Domain.DLS.get depth_key in
    let my_depth = !d in
    d := my_depth + 1;
    let minor0, _, major0 = Gc.counters () in
    let t0 = now_ns () in
    let finish () =
      d := my_depth;
      let args =
        match end_args with None -> args | Some more -> args @ more ()
      in
      finish_span ~name ~cat ~args ~my_depth ~t0 ~minor0 ~major0
    in
    match f () with
    | v -> finish (); v
    | exception e -> finish (); raise e
  end

let spans () =
  let all = Locked.use recorded ( ! ) in
  List.sort
    (fun a b ->
      let c = compare a.track b.track in
      if c <> 0 then c
      else
        let c = Int64.compare a.start_ns b.start_ns in
        if c <> 0 then c else compare a.depth b.depth)
    all
