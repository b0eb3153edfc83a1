(* Resynthesis-as-a-service daemon and its one-shot client.

   Usage:
     resynthd serve  (--socket PATH | --tcp HOST:PORT) [--jobs N]
                     [--queue N] [--max-netlist BYTES] [--timeout S]
                     [--stream-trace FILE]
     resynthd client (--socket PATH | --tcp HOST:PORT)
                     (--benchmark NAME | --blif FILE | --metrics
                      | --shutdown | --raw LINE)
                     [--id ID] [--no-verify] [--verify-each] [--eqcheck-each]
                     [--timeout S] [--poll S] [--no-drain] [--diagnostics]

   serve
   --socket PATH    listen on a Unix domain socket
   --tcp HOST:PORT  listen on a TCP socket
   --jobs N         fork-join pool size (default 2; 0 = one per core).
                    The event loop is worker 0; jobs >= 2 keeps the daemon
                    responsive while flows run.  A pool that cannot start
                    exits 2
   --queue N        max in-flight requests before queue-full rejection
   --max-netlist B  inline-BLIF size cap in bytes
   --timeout S      default per-request deadline (seconds, fractional ok)
   --stream-trace F append every completed span to F as JSON lines

   client submits one request and reports the deterministic result: for a
   flow request it prints the Table I row line (byte-identical to the
   [table1] binary's row for the same circuit and options) on stdout.
   --diagnostics additionally prints the nondeterministic per-request
   accounting (elapsed time, metrics delta) to stderr.  --raw sends a
   preformatted protocol line and prints the raw response.

   Exit codes: 0 success; 1 request failed / cancelled / timed out /
   connection refused; 2 usage. *)

let usage () =
  prerr_endline
    "usage: resynthd serve  (--socket PATH | --tcp HOST:PORT) [--jobs N] \
     [--queue N]\n\
    \                       [--max-netlist BYTES] [--timeout S] \
     [--stream-trace FILE]\n\
    \       resynthd client (--socket PATH | --tcp HOST:PORT)\n\
    \                       (--benchmark NAME | --blif FILE | --metrics | \
     --shutdown | --raw LINE)\n\
    \                       [--id ID] [--no-verify] [--verify-each] \
     [--eqcheck-each]\n\
    \                       [--timeout S] [--poll S] [--no-drain] \
     [--diagnostics]";
  exit 2

let parse_endpoint sock tcp =
  match (sock, tcp) with
  | Some path, None -> Serve.Daemon.Unix_socket path
  | None, Some hostport ->
    (match String.rindex_opt hostport ':' with
     | Some i ->
       let host = String.sub hostport 0 i in
       let port = String.sub hostport (i + 1) (String.length hostport - i - 1) in
       (match int_of_string_opt port with
        | Some p when p > 0 && p < 65536 -> Serve.Daemon.Tcp (host, p)
        | Some _ | None ->
          prerr_endline "resynthd: --tcp expects HOST:PORT";
          exit 2)
     | None ->
       prerr_endline "resynthd: --tcp expects HOST:PORT";
       exit 2)
  | Some _, Some _ ->
    prerr_endline "resynthd: --socket and --tcp are mutually exclusive";
    exit 2
  | None, None ->
    prerr_endline "resynthd: an endpoint is required (--socket or --tcp)";
    exit 2

let pos_int flag s =
  match int_of_string_opt s with
  | Some v when v > 0 -> v
  | Some _ | None ->
    Printf.eprintf "resynthd: %s expects a positive integer\n" flag;
    exit 2

let pos_float flag s =
  match float_of_string_opt s with
  | Some v when v > 0.0 -> v
  | Some _ | None ->
    Printf.eprintf "resynthd: %s expects a positive number\n" flag;
    exit 2

(* --- serve mode --------------------------------------------------------------------- *)

let serve_main args =
  let sock = ref None and tcp = ref None in
  let jobs = ref 2 in
  let queue = ref None and max_netlist = ref None and timeout = ref None in
  let stream_trace = ref None in
  let rec parse = function
    | [] -> ()
    | "--socket" :: path :: rest -> sock := Some path; parse rest
    | "--tcp" :: hp :: rest -> tcp := Some hp; parse rest
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
       | Some j when j >= 0 -> jobs := j
       | Some _ | None ->
         prerr_endline "resynthd: --jobs expects a non-negative integer";
         exit 2);
      parse rest
    | "--queue" :: n :: rest -> queue := Some (pos_int "--queue" n); parse rest
    | "--max-netlist" :: n :: rest ->
      max_netlist := Some (pos_int "--max-netlist" n);
      parse rest
    | "--timeout" :: s :: rest ->
      timeout := Some (pos_float "--timeout" s);
      parse rest
    | "--stream-trace" :: file :: rest ->
      stream_trace := Some file;
      parse rest
    | arg :: _ ->
      Printf.eprintf "resynthd: unknown serve argument %s\n" arg;
      usage ()
  in
  parse args;
  let endpoint = parse_endpoint !sock !tcp in
  let jobs = if !jobs = 0 then Core.Parallel.default_jobs () else !jobs in
  let d = Serve.Engine.default_config in
  let config =
    { Serve.Engine.queue_capacity =
        Option.value ~default:d.Serve.Engine.queue_capacity !queue;
      max_netlist_bytes =
        Option.value ~default:d.Serve.Engine.max_netlist_bytes !max_netlist;
      default_timeout_s =
        (match !timeout with
         | Some _ as t -> t
         | None -> d.Serve.Engine.default_timeout_s);
      retry_after_ms = d.Serve.Engine.retry_after_ms }
  in
  let stop = Atomic.make false in
  let request_stop _ = Atomic.set stop true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
  let ready () =
    Printf.printf "resynthd: listening on %s (jobs %d)\n"
      (Serve.Daemon.endpoint_to_string endpoint)
      jobs;
    flush stdout
  in
  (try
     Serve.Daemon.run ~config ~jobs ?stream_trace:!stream_trace ~stop ~ready
       endpoint
   with Core.Parallel.Pool_start_failed (n, e) ->
     Printf.eprintf "resynthd: cannot start %d workers (--jobs): %s\n" n
       (Printexc.to_string e);
     exit 2)

(* --- client mode -------------------------------------------------------------------- *)

type action =
  | Submit_benchmark of string
  | Submit_blif of string  (* file path *)
  | Fetch_metrics
  | Send_shutdown
  | Send_raw of string

let client_main args =
  let sock = ref None and tcp = ref None in
  let action = ref None in
  let id = ref None in
  let verify = ref true in
  let verify_each = ref false and eqcheck_each = ref false in
  let timeout = ref None and poll = ref None in
  let drain = ref true in
  let want_diagnostics = ref false in
  let set_action a =
    match !action with
    | None -> action := Some a
    | Some _ ->
      prerr_endline "resynthd: choose exactly one client action";
      exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--socket" :: path :: rest -> sock := Some path; parse rest
    | "--tcp" :: hp :: rest -> tcp := Some hp; parse rest
    | "--benchmark" :: name :: rest ->
      set_action (Submit_benchmark name);
      parse rest
    | "--blif" :: file :: rest -> set_action (Submit_blif file); parse rest
    | "--metrics" :: rest -> set_action Fetch_metrics; parse rest
    | "--shutdown" :: rest -> set_action Send_shutdown; parse rest
    | "--raw" :: line :: rest -> set_action (Send_raw line); parse rest
    | "--id" :: v :: rest -> id := Some v; parse rest
    | "--no-verify" :: rest -> verify := false; parse rest
    | "--verify-each" :: rest -> verify_each := true; parse rest
    | "--eqcheck-each" :: rest -> eqcheck_each := true; parse rest
    | "--timeout" :: s :: rest ->
      timeout := Some (pos_float "--timeout" s);
      parse rest
    | "--poll" :: s :: rest -> poll := Some (pos_float "--poll" s); parse rest
    | "--no-drain" :: rest -> drain := false; parse rest
    | "--diagnostics" :: rest -> want_diagnostics := true; parse rest
    | arg :: _ ->
      Printf.eprintf "resynthd: unknown client argument %s\n" arg;
      usage ()
  in
  parse args;
  let endpoint = parse_endpoint !sock !tcp in
  let action =
    match !action with
    | Some a -> a
    | None ->
      prerr_endline "resynthd: choose a client action";
      exit 2
  in
  let conn =
    try Serve.Client.connect endpoint
    with Unix.Unix_error (e, _, _) ->
      Printf.eprintf "resynthd: cannot connect to %s: %s\n"
        (Serve.Daemon.endpoint_to_string endpoint)
        (Unix.error_message e);
      exit 1
  in
  let fail msg =
    Printf.eprintf "resynthd: %s\n" msg;
    Serve.Client.close conn;
    exit 1
  in
  let must = function Ok v -> v | Error msg -> fail msg in
  let submit_doc source_field =
    let open Obs.Json in
    let fields =
      [ ("op", Str "submit") ]
      @ (match !id with Some v -> [ ("id", Str v) ] | None -> [])
      @ [ source_field; ("verify", Bool !verify) ]
      @ (if !verify_each then [ ("verify_each", Bool true) ] else [])
      @ (if !eqcheck_each then [ ("eqcheck_each", Bool true) ] else [])
      @ (match !timeout with Some s -> [ ("timeout_s", Float s) ] | None -> [])
    in
    Obj fields
  in
  let finish_submit doc =
    let reply = must (Serve.Client.submit_and_wait ?poll_s:!poll conn doc) in
    match Obs.Json.mem_bool "ok" reply with
    | Some true ->
      let row =
        match Obs.Json.member "result" reply with
        | Some result -> Obs.Json.mem_str "row" result
        | None -> None
      in
      (match row with
       | Some line -> print_endline line
       | None -> print_endline (Obs.Json.to_string reply));
      if !want_diagnostics then begin
        match Obs.Json.mem_str "id" reply with
        | Some rid ->
          let diag =
            must
              (Serve.Client.request conn
                 (Obs.Json.Obj
                    [ ("op", Obs.Json.Str "diagnostics");
                      ("id", Obs.Json.Str rid) ]))
          in
          prerr_endline (Obs.Json.to_string diag)
        | None -> ()
      end;
      Serve.Client.close conn
    | _ -> fail (Obs.Json.to_string reply)
  in
  (match action with
   | Submit_benchmark name ->
     finish_submit (submit_doc ("benchmark", Obs.Json.Str name))
   | Submit_blif file ->
     let text =
       try In_channel.with_open_bin file In_channel.input_all
       with Sys_error msg -> fail msg
     in
     finish_submit (submit_doc ("netlist", Obs.Json.Str text))
   | Fetch_metrics ->
     let reply =
       must
         (Serve.Client.request conn
            (Obs.Json.Obj [ ("op", Obs.Json.Str "metrics") ]))
     in
     (match Obs.Json.mem_str "body" reply with
      | Some body -> print_string body
      | None -> fail (Obs.Json.to_string reply));
     Serve.Client.close conn
   | Send_shutdown ->
     let reply =
       must
         (Serve.Client.request conn
            (Obs.Json.Obj
               [ ("op", Obs.Json.Str "shutdown");
                 ("drain", Obs.Json.Bool !drain) ]))
     in
     print_endline (Obs.Json.to_string reply);
     Serve.Client.close conn
   | Send_raw line ->
     let reply = must (Serve.Client.request_line conn line) in
     print_endline (Obs.Json.to_string reply);
     Serve.Client.close conn)

let () =
  match Array.to_list Sys.argv with
  | _ :: "serve" :: rest -> serve_main rest
  | _ :: "client" :: rest -> client_main rest
  | _ -> usage ()
