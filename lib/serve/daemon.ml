type endpoint =
  | Unix_socket of string
  | Tcp of string * int

let endpoint_to_string = function
  | Unix_socket path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let m_stream_dropped = Obs.Metrics.counter "serve.stream.dropped"
let m_connections = Obs.Metrics.counter "serve.connections"

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;  (* partial input line *)
  mutable streaming : bool;
  mutable sink_id : int option;
  mutable closed : bool;
}

(* --- writes ------------------------------------------------------------------------- *)

(* Event-loop writes: ordinary response lines on blocking fds. *)
let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then begin
      let w = Unix.write fd b off (n - off) in
      go (off + w)
    end
  in
  (try go 0 with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ())

(* Streaming-sink writes: called from whichever worker domain completes a
   span, so they must never block the pool.  The subscriber fd is
   nonblocking; once the kernel buffer fills, the rest of the line is
   dropped and counted — a slow span consumer costs spans, not throughput. *)
let write_nonblocking fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off >= n then true
    else
      match Unix.write fd b off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        false
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        false
  in
  go 0

(* --- listening sockets -------------------------------------------------------------- *)

let listen_on = function
  | Unix_socket path ->
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 16;
    fd
  | Tcp (host, port) ->
    let addr =
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found -> Unix.inet_addr_of_string host
    in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (addr, port));
    Unix.listen fd 16;
    fd

(* --- span streaming ----------------------------------------------------------------- *)

(* Each streaming writer (a socket subscriber, the trace file) is owned by
   its lock: spans from concurrent domains interleave by line, never by
   byte. *)
let span_line s = Obs.Json.to_string (Obs.Export.span_json s) ^ "\n"

let subscriber_sink fd =
  let fd = Obs.Locked.create fd in
  { Obs.Trace.on_span =
      (fun s ->
        let line = span_line s in
        Obs.Locked.use fd (fun fd ->
            if not (write_nonblocking fd line) then
              Obs.Metrics.incr m_stream_dropped));
    on_flush = (fun () -> ()) }

let file_sink oc =
  { Obs.Trace.on_span =
      (fun s ->
        let line = span_line s in
        Obs.Locked.use oc (fun oc ->
            output_string oc line;
            flush oc));
    on_flush = (fun () -> Obs.Locked.use oc flush) }

let enable_streaming () =
  Obs.Trace.enable ();
  (* a daemon lives long: deliver spans to sinks, never accumulate them *)
  Obs.Trace.set_buffering false

(* --- request handling --------------------------------------------------------------- *)

let publish_registries () =
  Bdd.publish_stats ();
  Techmap.publish_stats ()

let http_metrics_response () =
  let body = publish_registries (); Obs.Export.prometheus_text () in
  Printf.sprintf
    "HTTP/1.0 200 OK\r\n\
     Content-Type: text/plain; version=0.0.4\r\n\
     Content-Length: %d\r\n\r\n%s"
    (String.length body) body

type loop_state = {
  mutable running : bool;
  mutable drain : bool;
}

let respond conn json = write_all conn.fd (Obs.Json.to_string json ^ "\n")

let close_conn conn =
  if not conn.closed then begin
    conn.closed <- true;
    (match conn.sink_id with
     | Some id -> Obs.Trace.remove_sink id
     | None -> ());
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end

let handle_line eng state conn line =
  if conn.streaming then ()  (* a span stream is write-only past subscribe *)
  else if String.length line >= 4 && String.sub line 0 4 = "GET " then begin
    write_all conn.fd (http_metrics_response ());
    close_conn conn
  end
  else
    match Obs.Json.parse line with
    | Error msg -> respond conn (Protocol.error ~code:"bad-json" ~detail:msg)
    | Ok doc ->
      (match
         Protocol.request_of_json
           ~max_netlist_bytes:(Engine.config eng).Engine.max_netlist_bytes doc
       with
       | Error (code, detail) -> respond conn (Protocol.error ~code ~detail)
       | Ok req ->
         (match Engine.handle eng req with
          | Some resp -> respond conn resp
          | None ->
            (match req with
             | Protocol.Metrics ->
               publish_registries ();
               respond conn
                 (Protocol.ok
                    [ ("body", Obs.Json.Str (Obs.Export.prometheus_text ())) ])
             | Protocol.Stream_spans ->
               enable_streaming ();
               respond conn
                 (Protocol.ok [ ("streaming", Obs.Json.Bool true) ]);
               Unix.set_nonblock conn.fd;
               conn.streaming <- true;
               conn.sink_id <- Some (Obs.Trace.add_sink (subscriber_sink conn.fd))
             | Protocol.Shutdown { drain } ->
               respond conn
                 (Protocol.ok
                    [ ("shutting_down", Obs.Json.Bool true);
                      ("drain", Obs.Json.Bool drain) ]);
               state.running <- false;
               state.drain <- drain
             | Protocol.Ping | Protocol.Submit _ | Protocol.Status _
             | Protocol.Result _ | Protocol.Diagnostics _ | Protocol.Cancel _
               ->
               (* unreachable: Engine.handle owns these *)
               respond conn
                 (Protocol.error ~code:"internal"
                    ~detail:"request not dispatched"))))

let drain_lines eng state conn =
  let data = Buffer.contents conn.buf in
  Buffer.clear conn.buf;
  let rec go start =
    match String.index_from_opt data start '\n' with
    | None ->
      Buffer.add_substring conn.buf data start (String.length data - start)
    | Some nl ->
      let line = String.sub data start (nl - start) in
      let line =
        (* tolerate CRLF clients *)
        if line <> "" && line.[String.length line - 1] = '\r' then
          String.sub line 0 (String.length line - 1)
        else line
      in
      if line <> "" then handle_line eng state conn line;
      if not conn.closed then go (nl + 1)
  in
  go 0

let read_conn eng state conn =
  let chunk = Bytes.create 65536 in
  match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
  | 0 -> close_conn conn
  | n ->
    Buffer.add_subbytes conn.buf chunk 0 n;
    drain_lines eng state conn
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
    close_conn conn

(* --- the event loop ----------------------------------------------------------------- *)

let event_loop eng ~listen_fd ~stop ~ready =
  let state = { running = true; drain = true } in
  let conns = ref [] in
  (match ready with Some f -> f () | None -> ());
  while
    state.running
    && not (match stop with Some s -> Atomic.get s | None -> false)
  do
    conns := List.filter (fun c -> not c.closed) !conns;
    let watched = listen_fd :: List.map (fun c -> c.fd) !conns in
    match Unix.select watched [] [] 0.2 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
      List.iter
        (fun fd ->
          if fd == listen_fd then begin
            match Unix.accept listen_fd with
            | client, _ ->
              Obs.Metrics.incr m_connections;
              conns :=
                { fd = client;
                  buf = Buffer.create 256;
                  streaming = false;
                  sink_id = None;
                  closed = false }
                :: !conns
            | exception Unix.Unix_error _ -> ()
          end
          else
            match List.find_opt (fun c -> c.fd == fd && not c.closed) !conns with
            | Some conn -> read_conn eng state conn
            | None -> ())
        readable
  done;
  if state.drain then Engine.drain eng;
  Obs.Trace.flush_sinks ();
  List.iter close_conn !conns

let run ?config ?(jobs = 2) ?stream_trace ?stop ?ready endpoint =
  (* a client vanishing mid-write must cost an EPIPE, not the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  Obs.Metrics.enable ();
  let eng = Engine.create ?config () in
  let trace_channel =
    match stream_trace with
    | None -> None
    | Some file ->
      enable_streaming ();
      let oc = Obs.Locked.create (open_out file) in
      let id = Obs.Trace.add_sink (file_sink oc) in
      Some (id, oc)
  in
  let listen_fd = listen_on endpoint in
  let finish () =
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    (match endpoint with
     | Unix_socket path ->
       (try Unix.unlink path with Unix.Unix_error _ -> ())
     | Tcp _ -> ());
    match trace_channel with
    | Some (id, oc) ->
      Obs.Trace.remove_sink id;
      Obs.Locked.use oc close_out
    | None -> ()
  in
  match
    Core.Parallel.run ~jobs (fun () -> event_loop eng ~listen_fd ~stop ~ready)
  with
  | () -> finish ()
  | exception e ->
    finish ();
    raise e
