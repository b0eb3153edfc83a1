type conn = {
  ic : in_channel;
  oc : out_channel;
  fd : Unix.file_descr;
}

let connect endpoint =
  let fd, addr =
    match endpoint with
    | Daemon.Unix_socket path ->
      (Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0, Unix.ADDR_UNIX path)
    | Daemon.Tcp (host, port) ->
      let inet =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found -> Unix.inet_addr_of_string host
      in
      (Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0,
       Unix.ADDR_INET (inet, port))
  in
  Unix.connect fd addr;
  { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd; fd }

let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

let request_line conn line =
  match
    output_string conn.oc line;
    output_char conn.oc '\n';
    flush conn.oc;
    input_line conn.ic
  with
  | reply -> Obs.Json.parse reply
  | exception End_of_file -> Error "connection closed by daemon"
  | exception Sys_error msg -> Error msg

let request conn doc = request_line conn (Obs.Json.to_string doc)

let read_line conn =
  match input_line conn.ic with
  | line -> Some line
  | exception (End_of_file | Sys_error _) -> None

let terminal_states = [ "done"; "failed"; "cancelled"; "timed-out" ]

let wait ?(poll_s = 0.02) conn ~id =
  let status_doc = Obs.Json.Obj [ ("op", Obs.Json.Str "status"); ("id", Obs.Json.Str id) ] in
  let rec poll () =
    match request conn status_doc with
    | Error _ as e -> e
    | Ok reply ->
      (match Obs.Json.mem_str "state" reply with
       | Some state when List.mem state terminal_states ->
         request conn
           (Obs.Json.Obj [ ("op", Obs.Json.Str "result"); ("id", Obs.Json.Str id) ])
       | Some _ ->
         Unix.sleepf poll_s;
         poll ()
       | None ->
         Error ("status reply without a state: " ^ Obs.Json.to_string reply))
  in
  poll ()

let submit_and_wait ?poll_s conn doc =
  match request conn doc with
  | Error _ as e -> e
  | Ok reply ->
    (match (Obs.Json.mem_bool "ok" reply, Obs.Json.mem_str "id" reply) with
     | Some true, Some id -> wait ?poll_s conn ~id
     | _, _ -> Ok reply)
