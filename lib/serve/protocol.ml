type submit_options = {
  verify : bool;
  verify_each : bool;
  eqcheck_each : bool;
  timeout_s : float option;
  cancel_after_passes : int option;
}

let default_submit_options =
  { verify = true;
    verify_each = false;
    eqcheck_each = false;
    timeout_s = None;
    cancel_after_passes = None }

type source =
  | Benchmark of string
  | Blif of string

type request =
  | Ping
  | Submit of {
      id : string option;
      source : source;
      opts : submit_options;
    }
  | Status of string
  | Result of string
  | Diagnostics of string
  | Cancel of string
  | Metrics
  | Stream_spans
  | Shutdown of { drain : bool }

let error ~code ~detail =
  Obs.Json.Obj
    [ ("ok", Obs.Json.Bool false);
      ("error", Obs.Json.Str code);
      ("detail", Obs.Json.Str detail) ]

let error_retry ~code ~detail ~retry_after_ms =
  Obs.Json.Obj
    [ ("ok", Obs.Json.Bool false);
      ("error", Obs.Json.Str code);
      ("detail", Obs.Json.Str detail);
      ("retry_after_ms", Obs.Json.Int retry_after_ms) ]

let ok fields = Obs.Json.Obj (("ok", Obs.Json.Bool true) :: fields)

let required_id j =
  match Obs.Json.mem_str "id" j with
  | Some id when id <> "" -> Ok id
  | Some _ -> Error ("bad-request", "empty request id")
  | None -> Error ("bad-request", "missing \"id\" field")

let submit_of_json ~max_netlist_bytes j =
  let id =
    match Obs.Json.mem_str "id" j with
    | Some "" -> None
    | other -> other
  in
  let opts =
    let d = default_submit_options in
    { verify = Option.value ~default:d.verify (Obs.Json.mem_bool "verify" j);
      verify_each =
        Option.value ~default:d.verify_each (Obs.Json.mem_bool "verify_each" j);
      eqcheck_each =
        Option.value ~default:d.eqcheck_each (Obs.Json.mem_bool "eqcheck_each" j);
      timeout_s = Obs.Json.mem_float "timeout_s" j;
      cancel_after_passes = Obs.Json.mem_int "cancel_after_passes" j }
  in
  match opts.timeout_s with
  | Some t when t <= 0.0 ->
    Error ("bad-request", "\"timeout_s\" must be positive")
  | _ ->
    (match (Obs.Json.mem_str "benchmark" j, Obs.Json.mem_str "netlist" j) with
     | Some _, Some _ ->
       Error
         ("bad-request", "\"benchmark\" and \"netlist\" are mutually exclusive")
     | Some name, None ->
       if name = "" then Error ("bad-request", "empty \"benchmark\" name")
       else Ok (Submit { id; source = Benchmark name; opts })
     | None, Some text ->
       if String.length text > max_netlist_bytes then
         Error
           ( "netlist-too-large",
             Printf.sprintf "netlist is %d bytes; the limit is %d"
               (String.length text) max_netlist_bytes )
       else if text = "" then Error ("bad-request", "empty \"netlist\"")
       else Ok (Submit { id; source = Blif text; opts })
     | None, None ->
       Error ("bad-request", "submit needs \"benchmark\" or \"netlist\""))

let request_of_json ~max_netlist_bytes j =
  match Obs.Json.mem_str "op" j with
  | None -> Error ("bad-request", "missing \"op\" field")
  | Some op ->
    (match op with
     | "ping" -> Ok Ping
     | "submit" -> submit_of_json ~max_netlist_bytes j
     | "status" -> Result.map (fun id -> Status id) (required_id j)
     | "result" -> Result.map (fun id -> Result id) (required_id j)
     | "diagnostics" -> Result.map (fun id -> Diagnostics id) (required_id j)
     | "cancel" -> Result.map (fun id -> Cancel id) (required_id j)
     | "metrics" -> Ok Metrics
     | "stream-spans" -> Ok Stream_spans
     | "shutdown" ->
       let drain = Option.value ~default:true (Obs.Json.mem_bool "drain" j) in
       Ok (Shutdown { drain })
     | other -> Error ("unknown-op", Printf.sprintf "unknown op %S" other))
