(* lib/serve tests: the JSON codec, the protocol grammar's structured
   errors, request-lifecycle determinism across pool sizes, mid-flow
   cancellation leaving warmed state clean, backpressure rejection,
   deadlines, Obs.Metrics.delta, trace sinks, and a live daemon round-trip
   over a Unix socket. *)

module J = Obs.Json
module P = Serve.Protocol
module E = Serve.Engine

let default = P.default_submit_options

let tiny_blif =
  ".model tiny\n\
   .inputs a b\n\
   .outputs y\n\
   .latch w q 0\n\
   .names a b w\n\
   11 1\n\
   .names q y\n\
   1 1\n\
   .end\n"

(* --- json codec --------------------------------------------------------------------- *)

let test_json_roundtrip () =
  let doc =
    J.Obj
      [ ("s", J.Str "a\"b\\c\nd");
        ("i", J.Int (-42));
        ("f", J.Float 1.5);
        ("b", J.Bool true);
        ("n", J.Null);
        ("l", J.List [ J.Int 1; J.Str "x"; J.Obj [] ]) ]
  in
  let text = J.to_string doc in
  (match J.parse text with
   | Ok parsed ->
     Alcotest.(check string) "print(parse(print)) fixpoint" text
       (J.to_string parsed)
   | Error msg -> Alcotest.failf "roundtrip parse failed: %s" msg);
  (match J.parse "{\"u\":\"\\u0041\\u00e9\"}" with
   | Ok v ->
     Alcotest.(check (option string)) "unicode escapes decode to UTF-8"
       (Some "A\xc3\xa9") (J.mem_str "u" v)
   | Error msg -> Alcotest.failf "unicode parse failed: %s" msg)

let test_json_errors () =
  let bad s =
    match J.parse s with
    | Ok _ -> Alcotest.failf "accepted malformed %S" s
    | Error msg -> Alcotest.(check bool) "error nonempty" true (msg <> "")
  in
  bad "";
  bad "{";
  bad "{\"a\":}";
  bad "[1,]";
  bad "\"unterminated";
  bad "1 trailing";
  bad "{\"a\":1}}";
  (* nesting cap: structured error, not a stack overflow *)
  bad (String.make 200 '[');
  match J.parse "  {\"a\": [1, 2.5, null]}  " with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "rejected valid document: %s" msg

(* --- protocol grammar --------------------------------------------------------------- *)

let classify ?(max = 1000) line =
  match J.parse line with
  | Error msg -> Error ("bad-json", msg)
  | Ok doc -> P.request_of_json ~max_netlist_bytes:max doc

let check_code name expected got =
  match got with
  | Error (code, _) -> Alcotest.(check string) name expected code
  | Ok _ -> Alcotest.failf "%s: expected error %s, got a request" name expected

let test_protocol_errors () =
  check_code "malformed json" "bad-json" (classify "{nope");
  check_code "missing op" "bad-request" (classify "{}");
  check_code "unknown op" "unknown-op" (classify "{\"op\":\"frobnicate\"}");
  check_code "submit needs a source" "bad-request" (classify "{\"op\":\"submit\"}");
  check_code "both sources" "bad-request"
    (classify "{\"op\":\"submit\",\"benchmark\":\"s27\",\"netlist\":\"x\"}");
  check_code "oversized netlist" "netlist-too-large"
    (classify ~max:4 "{\"op\":\"submit\",\"netlist\":\"12345\"}");
  check_code "status needs id" "bad-request" (classify "{\"op\":\"status\"}");
  check_code "bad timeout" "bad-request"
    (classify "{\"op\":\"submit\",\"benchmark\":\"s27\",\"timeout_s\":-1}");
  (match classify "{\"op\":\"submit\",\"benchmark\":\"s27\",\"eqcheck_each\":true}" with
   | Ok (P.Submit { source = P.Benchmark "s27"; opts; _ }) ->
     Alcotest.(check bool) "eqcheck_each parsed" true opts.P.eqcheck_each;
     Alcotest.(check bool) "verify defaults on" true opts.P.verify
   | _ -> Alcotest.fail "valid submit rejected");
  match classify "{\"op\":\"shutdown\"}" with
  | Ok (P.Shutdown { drain }) ->
    Alcotest.(check bool) "shutdown drains by default" true drain
  | _ -> Alcotest.fail "shutdown rejected"

(* One request line of every op, mutated by one to four random edits drawn
   from [seed]: a byte overwritten (half the time with a JSON
   metacharacter), the line truncated, a slice of it repeated elsewhere, or
   up to 100 open brackets inserted.  The parser and the classifier return
   errors; neither raises. *)
let request_lines =
  lazy
    (Array.of_list
       (List.map J.to_string
          [ J.Obj [ ("op", J.Str "ping") ];
            J.Obj [ ("op", J.Str "submit"); ("benchmark", J.Str "s27");
                    ("verify", J.Bool true); ("eqcheck_each", J.Bool false);
                    ("timeout_s", J.Float 2.5) ];
            J.Obj [ ("op", J.Str "submit"); ("id", J.Str "r1");
                    ("netlist", J.Str tiny_blif) ];
            J.Obj [ ("op", J.Str "status"); ("id", J.Str "r1") ];
            J.Obj [ ("op", J.Str "result"); ("id", J.Str "r1") ];
            J.Obj [ ("op", J.Str "diagnostics"); ("id", J.Str "r1") ];
            J.Obj [ ("op", J.Str "cancel"); ("id", J.Str "r1") ];
            J.Obj [ ("op", J.Str "metrics") ];
            J.Obj [ ("op", J.Str "stream-spans") ];
            J.Obj [ ("op", J.Str "shutdown"); ("drain", J.Bool false) ] ]
       @ [ "{\"op\":\"x\\u00e9\",\"l\":[-1,null,1.5e3,true]}" ]))

let mutate_request line seed =
  let rng = Random.State.make [| seed |] in
  let edit line =
    let n = String.length line in
    let at = Random.State.int rng (n + 1) in
    let insert s = String.sub line 0 at ^ s ^ String.sub line at (n - at) in
    match Random.State.int rng 4 with
    | 0 when n > 0 ->
      let b = Bytes.of_string line in
      let meta = "{}[]\",:\\-+.eE0u" in
      Bytes.set b (Random.State.int rng n)
        (if Random.State.bool rng then
           meta.[Random.State.int rng (String.length meta)]
         else Char.chr (Random.State.int rng 256));
      Bytes.to_string b
    | 0 | 1 -> String.sub line 0 at
    | 2 ->
      let from = Random.State.int rng (n + 1) in
      insert (String.sub line from (Random.State.int rng (n - from + 1)))
    | _ ->
      insert (String.make (1 + Random.State.int rng 100)
                (if Random.State.bool rng then '[' else '{'))
  in
  let rec go k line = if k = 0 then line else go (k - 1) (edit line) in
  go (1 + Random.State.int rng 4) line

let prop_request_fuzz =
  QCheck.Test.make ~count:2000 ~name:"mutated request lines raise nothing"
    QCheck.(pair (int_range 0 10) (int_range 0 1_000_000_000))
    (fun (which, seed) ->
      let line = mutate_request (Lazy.force request_lines).(which) seed in
      (match J.parse line with
       | Error _ -> ()
       | Ok doc -> ignore (P.request_of_json ~max_netlist_bytes:(4 lsl 20) doc));
      true)

(* --- engine helpers ----------------------------------------------------------------- *)

let expect_ok name reply =
  match J.mem_bool "ok" reply with
  | Some true -> ()
  | _ -> Alcotest.failf "%s: %s" name (J.to_string reply)

let expect_error name code reply =
  Alcotest.(check (option string)) name (Some code) (J.mem_str "error" reply)

let job_state eng id =
  match J.mem_str "state" (E.status eng id) with
  | Some s -> s
  | None -> Alcotest.failf "no state for %s" id

let result_payload eng id =
  match J.member "result" (E.result eng id) with
  | Some p -> J.to_string p
  | None -> Alcotest.failf "request %s has no result: %s" id
              (J.to_string (E.result eng id))

let submit_and_drain eng ~id ?(opts = default) source =
  expect_ok ("submit " ^ id) (E.submit eng ~id:(Some id) source opts);
  E.drain eng

(* --- determinism across pool sizes -------------------------------------------------- *)

let payload_for_jobs jobs =
  Core.Parallel.run ~jobs (fun () ->
      let eng = E.create () in
      submit_and_drain eng ~id:"det"
        ~opts:{ default with P.eqcheck_each = true }
        (P.Benchmark "s27");
      let bench = result_payload eng "det" in
      submit_and_drain eng ~id:"blif" (P.Blif tiny_blif);
      bench ^ "\x00" ^ result_payload eng "blif")

let test_jobs_determinism () =
  let p1 = payload_for_jobs 1 in
  let p2 = payload_for_jobs 2 in
  let p4 = payload_for_jobs 4 in
  Alcotest.(check string) "jobs 1 vs 2 byte-identical" p1 p2;
  Alcotest.(check string) "jobs 1 vs 4 byte-identical" p1 p4

let test_row_matches_one_shot () =
  let via_engine =
    Core.Parallel.run ~jobs:2 (fun () ->
        let eng = E.create () in
        submit_and_drain eng ~id:"r" (P.Benchmark "s27");
        match J.member "result" (E.result eng "r") with
        | Some p -> J.mem_str "row" p
        | None -> None)
  in
  let one_shot =
    match Report.Table.run_suite ~names:[ "s27" ] () with
    | [ row ] -> Some (Report.Table.row_to_string row)
    | _ -> None
  in
  Alcotest.(check (option string)) "served row = one-shot table row" one_shot
    via_engine

(* --- cancellation leaves warmed state clean ----------------------------------------- *)

let test_cancel_mid_flow () =
  Core.Parallel.run ~jobs:2 (fun () ->
      let eng = E.create () in
      (* self-cancel after 3 pass boundaries: deterministically mid-flow *)
      expect_ok "submit cancelling job"
        (E.submit eng ~id:(Some "c")
           (P.Benchmark "s27")
           { default with P.cancel_after_passes = Some 3 });
      E.drain eng;
      Alcotest.(check string) "job cancelled" "cancelled" (job_state eng "c");
      expect_error "result reports cancelled" "cancelled" (E.result eng "c");
      (* the next request on the same engine — same warm cache, same shared
         BDD table — must complete with every pass verdict clean *)
      submit_and_drain eng ~id:"after"
        ~opts:{ default with P.eqcheck_each = true }
        (P.Benchmark "s27");
      Alcotest.(check string) "follow-up done" "done" (job_state eng "after");
      let payload = result_payload eng "after" in
      let refuted =
        match J.member "result" (E.result eng "after") with
        | Some p ->
          (match J.member "eqcheck" p with
           | Some eq -> J.mem_int "refuted" eq
           | None -> None)
        | None -> None
      in
      Alcotest.(check (option int)) "0 refuted after cancel" (Some 0) refuted;
      (* and byte-identical to the same request on a never-cancelled engine *)
      let fresh = E.create () in
      submit_and_drain fresh ~id:"after"
        ~opts:{ default with P.eqcheck_each = true }
        (P.Benchmark "s27");
      Alcotest.(check string) "identical to fresh engine"
        (result_payload fresh "after") payload)

let test_timeout () =
  Core.Parallel.run ~jobs:2 (fun () ->
      let eng = E.create () in
      expect_ok "submit with tiny deadline"
        (E.submit eng ~id:(Some "t")
           (P.Benchmark "s27")
           { default with P.timeout_s = Some 1e-9 });
      E.drain eng;
      Alcotest.(check string) "timed out" "timed-out" (job_state eng "t");
      expect_error "result reports timeout" "timeout" (E.result eng "t"))

(* --- pass boundaries ---------------------------------------------------------------- *)

(* Run the full Table I flow on a suite row with a hook that records every
   boundary crossing, tracing on: the pass names in the order they cross,
   and the names of the spans the run recorded. *)
let crossings_and_spans name =
  let seen = ref [] in
  let record b _ = seen := b.Verify.pass :: !seen in
  Obs.Trace.reset ();
  Obs.Trace.enable ();
  let net = (Circuits.Suite.find name).Circuits.Suite.build () in
  ignore
    (Core.Parallel.run ~jobs:1 (fun () ->
         Core.Flow.run_all ~hooks:[ record ] ~name net));
  let spans = List.map (fun s -> s.Obs.Trace.name) (Obs.Trace.spans ()) in
  Obs.Trace.disable ();
  Obs.Trace.reset ();
  (List.rev !seen, spans)

let test_boundary_sequence () =
  let retiming =
    [ "retiming/min-period"; "retiming/unreachable-simplify";
      "retiming/simplify-nodes"; "retiming/sweep"; "retiming/remap" ]
  in
  (* the stem split crosses twice: the split itself, then the DC_ret classes
     it declared *)
  let resynth =
    [ "resynth/fanout-free"; "resynth/stem-split"; "resynth/stem-split";
      "resynth/forward-fixpoint"; "resynth/dc-simplify"; "resynth/sweep";
      "resynth/strash"; "resynth/remap"; "resynth/post-retime";
      "resynth/min-area" ]
  in
  let check name expected =
    let crossed, spans = crossings_and_spans name in
    Alcotest.(check (list string)) (name ^ " boundary sequence") expected
      crossed;
    List.iter
      (fun pass ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s is a span of the run" name pass)
          true (List.mem pass spans))
      crossed;
    crossed
  in
  let s27 = check "s27" (("script.delay" :: retiming) @ resynth) in
  (* s386: resynthesis applies, but neither min-period retiming finds a
     better period, so those two passes build no network and cross no
     boundary (their spans still open) *)
  ignore
    (check "s386"
       ("script.delay"
       :: List.filter (fun p -> p <> "resynth/post-retime") resynth));
  Core.Parallel.run ~jobs:1 (fun () ->
      let eng = E.create () in
      submit_and_drain eng ~id:"s27" (P.Benchmark "s27");
      Alcotest.(check string) "s27 job done" "done" (job_state eng "s27");
      let passes =
        match J.member "diagnostics" (E.diagnostics eng "s27") with
        | Some d -> J.mem_int "passes" d
        | None -> None
      in
      Alcotest.(check (option int)) "daemon passes = crossings recorded"
        (Some (List.length s27)) passes)

(* --- backpressure ------------------------------------------------------------------- *)

let test_backpressure () =
  Core.Parallel.run ~jobs:2 (fun () ->
      let eng =
        E.create
          ~config:{ E.default_config with E.queue_capacity = 1 }
          ()
      in
      let release = Atomic.make false in
      expect_ok "held job admitted" (E.submit_held eng ~id:(Some "hold") ~release);
      let rejected =
        E.submit eng ~id:(Some "next") (P.Benchmark "s27") default
      in
      expect_error "queue full" "queue-full" rejected;
      Alcotest.(check (option int)) "retry hint" (Some 100)
        (J.mem_int "retry_after_ms" rejected);
      Atomic.set release true;
      E.drain eng;
      Alcotest.(check string) "held job completed" "done" (job_state eng "hold");
      submit_and_drain eng ~id:"next" (P.Benchmark "s27");
      Alcotest.(check string) "slot freed" "done" (job_state eng "next"))

let test_engine_errors () =
  let eng = E.create () in
  expect_error "unknown benchmark" "unknown-benchmark"
    (E.submit eng ~id:(Some "x") (P.Benchmark "sXYZ") default);
  expect_error "blif parse error" "parse-error"
    (E.submit eng ~id:(Some "x") (P.Blif ".model broken\n.names\n.end\n") default);
  (* a .names loop is refused at submit time with the loop's names *)
  let cyclic =
    E.submit eng ~id:(Some "x")
      (P.Blif
         ".model loop\n.inputs a\n.outputs q\n.names a t u\n11 1\n\
          .names u t\n1 1\n.names u q\n1 1\n.end\n")
      default
  in
  expect_error "blif combinational cycle" "parse-error" cyclic;
  Alcotest.(check (option string)) "names the loop"
    (Some "blif: combinational cycle through u, t") (J.mem_str "detail" cyclic);
  expect_error "unknown id" "unknown-id" (E.status eng "nope");
  submit_and_drain eng ~id:"dup" (P.Blif tiny_blif);
  expect_error "duplicate id" "duplicate-id"
    (E.submit eng ~id:(Some "dup") (P.Blif tiny_blif) default)

(* --- Obs.Metrics.delta -------------------------------------------------------------- *)

let test_metrics_delta () =
  Obs.Metrics.enable ();
  let c = Obs.Metrics.counter "test.serve.delta_counter" in
  let g = Obs.Metrics.gauge "test.serve.delta_gauge" in
  let h = Obs.Metrics.histogram "test.serve.delta_hist" in
  Obs.Metrics.incr c;
  Obs.Metrics.set_gauge g 1.0;
  Obs.Metrics.observe h 4;
  let snap = Obs.Metrics.snapshot () in
  Alcotest.(check int) "quiescent delta is empty" 0
    (List.length (Obs.Metrics.delta snap));
  Obs.Metrics.add c 2;
  Obs.Metrics.set_gauge g 3.5;
  Obs.Metrics.observe h 8;
  Obs.Metrics.observe h 8;
  let d = Obs.Metrics.delta snap in
  (match List.assoc_opt "test.serve.delta_counter" d with
   | Some (Obs.Metrics.Counter n) -> Alcotest.(check int) "counter delta" 2 n
   | _ -> Alcotest.fail "counter missing from delta");
  (match List.assoc_opt "test.serve.delta_gauge" d with
   | Some (Obs.Metrics.Gauge v) ->
     Alcotest.(check (float 0.0)) "gauge current value" 3.5 v
   | _ -> Alcotest.fail "gauge missing from delta");
  match List.assoc_opt "test.serve.delta_hist" d with
  | Some (Obs.Metrics.Histogram hs) ->
    Alcotest.(check int) "histogram delta count" 2 hs.Obs.Metrics.count;
    Alcotest.(check int) "histogram delta sum" 16 hs.Obs.Metrics.sum
  | _ -> Alcotest.fail "histogram missing from delta"

(* --- trace sinks -------------------------------------------------------------------- *)

let test_trace_sink () =
  Obs.Trace.disable ();
  Obs.Trace.reset ();
  Obs.Trace.enable ();
  let seen = ref [] in
  let flushed = ref 0 in
  let id =
    Obs.Trace.add_sink
      { Obs.Trace.on_span =
          (fun s -> seen := s.Obs.Trace.name :: !seen);
        on_flush = (fun () -> incr flushed) }
  in
  Obs.Trace.set_buffering false;
  Obs.Trace.span "streamed-only" (fun () -> ());
  Alcotest.(check int) "unbuffered span not recorded" 0
    (List.length (Obs.Trace.spans ()));
  Alcotest.(check (list string)) "sink saw the span" [ "streamed-only" ] !seen;
  Obs.Trace.set_buffering true;
  Obs.Trace.span "both" (fun () -> ());
  Alcotest.(check int) "buffered span recorded" 1
    (List.length (Obs.Trace.spans ()));
  Alcotest.(check (list string)) "sink saw both" [ "both"; "streamed-only" ]
    !seen;
  Obs.Trace.flush_sinks ();
  Alcotest.(check int) "flush reached the sink" 1 !flushed;
  Obs.Trace.remove_sink id;
  Obs.Trace.span "after-removal" (fun () -> ());
  Alcotest.(check int) "removed sink sees nothing" 2 (List.length !seen);
  Obs.Trace.disable ();
  Obs.Trace.reset ()

(* --- live daemon over a Unix socket ------------------------------------------------- *)

(* A daemon on a fresh Unix socket, once it is ready: its socket path, the
   endpoint, the domain serving it and one client connection. *)
let start_daemon () =
  let path = Filename.temp_file "resynthd-test" ".sock" in
  Sys.remove path;
  let endpoint = Serve.Daemon.Unix_socket path in
  let ready = Atomic.make false in
  let daemon =
    Domain.spawn (fun () ->
        Serve.Daemon.run ~jobs:2
          ~config:{ E.default_config with E.max_netlist_bytes = 100_000 }
          ~ready:(fun () -> Atomic.set ready true)
          endpoint)
  in
  while not (Atomic.get ready) do
    Domain.cpu_relax ()
  done;
  (path, endpoint, daemon, Serve.Client.connect endpoint)

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "client request failed: %s" msg

let test_daemon_socket () =
  let path, endpoint, daemon, conn = start_daemon () in
  expect_ok "ping" (ok (Serve.Client.request conn (J.Obj [ ("op", J.Str "ping") ])));
  expect_error "malformed line" "bad-json"
    (ok (Serve.Client.request_line conn "{this is not json"));
  expect_error "unknown op over the wire" "unknown-op"
    (ok (Serve.Client.request conn (J.Obj [ ("op", J.Str "nonsense") ])));
  expect_error "oversized netlist over the wire" "netlist-too-large"
    (ok
       (Serve.Client.request conn
          (J.Obj
             [ ("op", J.Str "submit");
               ("netlist", J.Str (String.make 100_001 'x')) ])));
  (* span streaming on a second connection, subscribed before the submit *)
  let stream = Serve.Client.connect endpoint in
  expect_ok "stream subscribe"
    (ok (Serve.Client.request stream (J.Obj [ ("op", J.Str "stream-spans") ])));
  let reply =
    ok
      (Serve.Client.submit_and_wait conn
         (J.Obj
            [ ("op", J.Str "submit");
              ("id", J.Str "s27");
              ("benchmark", J.Str "s27") ]))
  in
  expect_ok "served flow" reply;
  let row =
    match J.member "result" reply with
    | Some p -> J.mem_str "row" p
    | None -> None
  in
  let one_shot =
    match Report.Table.run_suite ~names:[ "s27" ] () with
    | [ r ] -> Some (Report.Table.row_to_string r)
    | _ -> None
  in
  Alcotest.(check (option string)) "daemon row = one-shot row" one_shot row;
  (* the subscriber received the request's flow span as a JSON line: the
     span completed (and was delivered) before the job turned "done", so
     the line is already buffered on this connection *)
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    n = 0 || go 0
  in
  let rec hunt remaining =
    if remaining = 0 then false
    else
      match Serve.Client.read_line stream with
      | None -> false
      | Some line ->
        contains line "serve/flow/s27" || hunt (remaining - 1)
  in
  Alcotest.(check bool) "span stream delivered the flow span" true (hunt 500);
  let metrics =
    ok (Serve.Client.request conn (J.Obj [ ("op", J.Str "metrics") ]))
  in
  (match J.mem_str "body" metrics with
   | Some body ->
     Alcotest.(check bool) "metrics body has serve accounting" true
       (contains body "serve_jobs_accepted")
   | None -> Alcotest.fail "metrics op returned no body");
  expect_ok "shutdown"
    (ok
       (Serve.Client.request conn
          (J.Obj [ ("op", J.Str "shutdown"); ("drain", J.Bool true) ])));
  Serve.Client.close conn;
  Serve.Client.close stream;
  Domain.join daemon;
  Alcotest.(check bool) "socket unlinked on shutdown" false (Sys.file_exists path)

(* A netlist that defines latch q twice is rejected as a parse error, and
   the daemon keeps serving. *)
let test_daemon_duplicate_latch () =
  let _, _, daemon, conn = start_daemon () in
  let blif =
    ".model dup\n.inputs a\n.outputs q\n.latch a q 0\n.latch a q 1\n.end\n"
  in
  let reply =
    ok
      (Serve.Client.request conn
         (J.Obj [ ("op", J.Str "submit"); ("netlist", J.Str blif) ]))
  in
  expect_error "latch defined twice" "parse-error" reply;
  Alcotest.(check (option string)) "names the line and latch"
    (Some "blif:5: q defined twice") (J.mem_str "detail" reply);
  expect_ok "ping after the bad netlist"
    (ok (Serve.Client.request conn (J.Obj [ ("op", J.Str "ping") ])));
  expect_ok "shutdown"
    (ok (Serve.Client.request conn (J.Obj [ ("op", J.Str "shutdown") ])));
  Serve.Client.close conn;
  Domain.join daemon

let () =
  Alcotest.run "serve"
    [ ("json",
       [ Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
         Alcotest.test_case "errors" `Quick test_json_errors ]);
      ("protocol",
       [ Alcotest.test_case "structured-errors" `Quick test_protocol_errors;
         QCheck_alcotest.to_alcotest prop_request_fuzz ]);
      ("engine",
       [ Alcotest.test_case "jobs-determinism" `Quick test_jobs_determinism;
         Alcotest.test_case "row-matches-one-shot" `Quick
           test_row_matches_one_shot;
         Alcotest.test_case "cancel-mid-flow" `Quick test_cancel_mid_flow;
         Alcotest.test_case "timeout" `Quick test_timeout;
         Alcotest.test_case "backpressure" `Quick test_backpressure;
         Alcotest.test_case "boundary-sequence" `Quick test_boundary_sequence;
         Alcotest.test_case "structured-errors" `Quick test_engine_errors ]);
      ("obs",
       [ Alcotest.test_case "metrics-delta" `Quick test_metrics_delta;
         Alcotest.test_case "trace-sink" `Quick test_trace_sink ]);
      ("daemon",
       [ Alcotest.test_case "unix-socket-roundtrip" `Quick test_daemon_socket;
         Alcotest.test_case "duplicate-latch-survives" `Quick
           test_daemon_duplicate_latch ])
    ]
