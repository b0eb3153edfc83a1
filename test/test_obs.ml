(* lib/obs tests: span nesting (qcheck), the zero-allocation disabled path,
   a sink that raises, per-domain span GC counts, a deterministic
   Chrome-export golden via the fake clock, the JSON codec (qcheck round
   trip) and every emitter built on it, metrics registry semantics, and
   flow determinism with tracing on vs off. *)

let reset_all () =
  Obs.Trace.disable ();
  Obs.Trace.reset ();
  Obs.Trace.set_clock None;
  Obs.Metrics.disable ();
  Obs.Metrics.reset ()

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* --- span nesting property ---------------------------------------------------- *)

type tree = Node of tree list

let gen_tree =
  QCheck.Gen.(
    sized_size (int_bound 3) (fix (fun self depth ->
        if depth = 0 then return (Node [])
        else
          list_size (int_bound 3) (self (depth - 1)) >|= fun kids -> Node kids)))

let rec tree_size (Node kids) =
  1 + List.fold_left (fun acc k -> acc + tree_size k) 0 kids

let rec print_tree (Node kids) =
  "(" ^ String.concat " " (List.map print_tree kids) ^ ")"

let arb_tree = QCheck.make ~print:print_tree gen_tree

let rec play (Node kids) =
  Obs.Trace.span "node" (fun () -> List.iter play kids)

let prop_nesting =
  QCheck.Test.make ~count:100 ~name:"span nesting is balanced and enclosed"
    arb_tree (fun tree ->
      reset_all ();
      Obs.Trace.enable ();
      play tree;
      let spans = Obs.Trace.spans () in
      let balanced = Obs.Trace.depth () = 0 in
      let counted = List.length spans = tree_size tree in
      let span_end (s : Obs.Trace.span) =
        Int64.add s.Obs.Trace.start_ns s.Obs.Trace.dur_ns
      in
      (* every nested span lies inside some span one level shallower *)
      let enclosed =
        List.for_all
          (fun (c : Obs.Trace.span) ->
            c.Obs.Trace.depth = 0
            || List.exists
                 (fun (p : Obs.Trace.span) ->
                   p.Obs.Trace.depth = c.Obs.Trace.depth - 1
                   && p.Obs.Trace.start_ns <= c.Obs.Trace.start_ns
                   && span_end c <= span_end p)
                 spans)
          spans
      in
      reset_all ();
      balanced && counted && enclosed)

(* --- disabled fast path -------------------------------------------------------- *)

let test_disabled_zero_alloc () =
  reset_all ();
  let body = fun () -> () in
  for _ = 1 to 1_000 do
    Obs.Trace.span "hot" body
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 50_000 do
    Obs.Trace.span "hot" body
  done;
  let delta = Gc.minor_words () -. w0 in
  (* 50k disabled spans: any per-span allocation would cost >= 100k words;
     the slack covers the Gc.minor_words float boxing itself *)
  Alcotest.(check bool)
    (Printf.sprintf "no allocation on the disabled path (%.0f words)" delta)
    true (delta < 100.0);
  Alcotest.(check int) "nothing recorded" 0 (List.length (Obs.Trace.spans ()))

let test_span_exception () =
  reset_all ();
  Obs.Trace.enable ();
  (try Obs.Trace.span "boom" (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "depth restored after raise" 0 (Obs.Trace.depth ());
  Alcotest.(check int) "raising span still recorded" 1
    (List.length (Obs.Trace.spans ()));
  reset_all ()

(* A sink that raises must not wedge the tracer: its exception leaves the
   span that was completing, and the sink registry and the span buffer stay
   usable on the same domain. *)
exception Sink_failed

let test_raising_sink () =
  reset_all ();
  Obs.Trace.enable ();
  let id =
    Obs.Trace.add_sink
      { Obs.Trace.on_span = (fun _ -> raise Sink_failed);
        on_flush = (fun () -> ()) }
  in
  (match Obs.Trace.span "doomed" (fun () -> ()) with
   | () -> Alcotest.fail "the sink's exception was swallowed"
   | exception Sink_failed -> ());
  Obs.Trace.remove_sink id;
  Obs.Trace.span "after" (fun () -> ());
  Obs.Trace.flush_sinks ();
  let names =
    List.sort compare
      (List.map (fun (s : Obs.Trace.span) -> s.name) (Obs.Trace.spans ()))
  in
  reset_all ();
  Alcotest.(check (list string)) "both spans buffered" [ "after"; "doomed" ]
    names

(* [end_args] is read when the span closes, on return and on raise, after
   the start-time [args]. *)
let test_span_end_args () =
  reset_all ();
  Obs.Trace.enable ();
  let n = ref 0 in
  let end_args () = [ ("n", Obs.Trace.Int !n) ] in
  Obs.Trace.span ~args:[ ("k", Obs.Trace.Str "v") ] ~end_args "ok" (fun () ->
      n := 2);
  (try
     Obs.Trace.span ~end_args "boom" (fun () -> n := 3; failwith "boom")
   with Failure _ -> ());
  let args =
    List.map (fun (s : Obs.Trace.span) -> (s.name, s.args)) (Obs.Trace.spans ())
  in
  Alcotest.(check bool) "args then end args" true
    (List.assoc "ok" args = [ ("k", Obs.Trace.Str "v"); ("n", Obs.Trace.Int 2) ]);
  Alcotest.(check bool) "end args on raise" true
    (List.assoc "boom" args = [ ("n", Obs.Trace.Int 3) ]);
  reset_all ()

(* A span counts only the allocation of the domain that ran it: here the
   main domain idles inside a span while a second domain allocates about
   10M minor words. *)
let test_span_gc_per_domain () =
  reset_all ();
  Obs.Trace.enable ();
  let started = Atomic.make false and finished = Atomic.make false in
  let worker =
    Domain.spawn (fun () ->
        while not (Atomic.get started) do Domain.cpu_relax () done;
        (* a [ref] is two words, header included *)
        for i = 1 to 5_000_000 do
          ignore (Sys.opaque_identity (ref i))
        done;
        Atomic.set finished true)
  in
  Obs.Trace.span "idle" (fun () ->
      Atomic.set started true;
      while not (Atomic.get finished) do Domain.cpu_relax () done);
  Domain.join worker;
  let s = List.find (fun (s : Obs.Trace.span) -> s.name = "idle") (Obs.Trace.spans ()) in
  reset_all ();
  Alcotest.(check bool)
    (Printf.sprintf "idle span counts %.0f minor words" s.minor_words)
    true (s.minor_words < 1e6)

(* --- Chrome exporter golden ---------------------------------------------------- *)

(* Fake clock ticking 1.5 us per read makes timestamps deterministic: outer
   starts at 1.5 us, inner spans 3.0..4.5 us, outer ends at 6.0 us.  Both
   ends floor to whole microseconds, so outer is [1, 6) and inner [3, 4). *)
let test_chrome_golden () =
  reset_all ();
  let t = ref 0L in
  Obs.Trace.set_clock
    (Some
       (fun () ->
         t := Int64.add !t 1500L;
         !t));
  Obs.Trace.enable ();
  Obs.Trace.span ~cat:"flow" "outer" (fun () ->
      Obs.Trace.span ~args:[ ("k", Obs.Trace.Str "v") ] "inner" (fun () -> ()));
  let out = Obs.Json.layout (Obs.Export.chrome_json ()) in
  reset_all ();
  Alcotest.(check bool) "object with traceEvents" true
    (String.starts_with ~prefix:"{\n  \"traceEvents\": [\n    {" out
    && String.ends_with ~suffix:"}\n  ]\n}" out);
  Alcotest.(check bool) "process metadata" true
    (contains out
       "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
        \"args\":{\"name\":\"retiming-resynthesis\"}}");
  Alcotest.(check bool) "track 0 named" true
    (contains out "\"args\":{\"name\":\"domain 0\"}");
  Alcotest.(check bool) "outer complete event" true
    (contains out
       "{\"name\":\"outer\",\"cat\":\"flow\",\"ph\":\"X\",\"pid\":1,\
        \"tid\":0,\"ts\":1,\"dur\":5,\"args\":{");
  Alcotest.(check bool) "inner complete event with args" true
    (contains out
       "{\"name\":\"inner\",\"cat\":\"span\",\"ph\":\"X\",\"pid\":1,\
        \"tid\":0,\"ts\":3,\"dur\":1,\"args\":{\"k\":\"v\",\
        \"gc_minor_words\":")

let test_spans_json_golden () =
  reset_all ();
  let t = ref 0L in
  Obs.Trace.set_clock
    (Some
       (fun () ->
         t := Int64.add !t 10L;
         !t));
  Obs.Trace.enable ();
  Obs.Trace.span "only" (fun () -> ());
  let out = Obs.Json.layout (Obs.Export.spans_json ()) in
  reset_all ();
  Alcotest.(check bool) "native span array" true
    (String.starts_with
       ~prefix:
         "[\n\
         \  {\"name\":\"only\",\"cat\":\"span\",\"track\":0,\"depth\":0,\
          \"start_ns\":10,\"dur_ns\":10,\"gc_minor_words\":"
       out
    && String.ends_with ~suffix:"}\n]" out)

(* --- JSON codec ----------------------------------------------------------------- *)

module J = Obs.Json

(* Nested values whose strings (keys too) draw on every byte 0x00-0xFF.
   Floats are multiples of 1/8 below 125 in magnitude, which the [%.6g]
   printer writes exactly. *)
let gen_json =
  let open QCheck.Gen in
  let str = string_size ~gen:(map Char.chr (int_range 0 255)) (int_bound 10) in
  let leaf =
    oneof
      [ return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun i -> J.Int i) int;
        map (fun k -> J.Float (float_of_int k /. 8.)) (int_range (-999) 999);
        map (fun s -> J.Str s) str ]
  in
  sized_size (int_bound 4)
    (fix (fun self depth ->
         if depth = 0 then leaf
         else
           frequency
             [ (2, leaf);
               (1, map (fun l -> J.List l) (list_size (int_bound 4) (self (depth - 1))));
               ( 1,
                 map (fun l -> J.Obj l)
                   (list_size (int_bound 4) (pair str (self (depth - 1)))) ) ]))

let arb_json = QCheck.make ~print:J.to_string gen_json

let prop_json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"parse inverts to_string and layout"
    arb_json (fun v ->
      J.parse (J.to_string v) = Ok v && J.parse (J.layout v) = Ok v)

let test_json_all_bytes () =
  let every = String.init 256 Char.chr in
  let v = J.Obj [ (every, J.List [ J.Str every; J.Obj [ (every, J.Null) ] ]) ] in
  Alcotest.(check bool) "compact" true (J.parse (J.to_string v) = Ok v);
  Alcotest.(check bool) "layout" true (J.parse (J.layout v) = Ok v);
  Alcotest.(check bool) "bytes from 0x80 up pass through" true
    (contains (J.to_string (J.Str "caf\xc3\xa9")) "caf\xc3\xa9")

(* Every JSON emitter of the tree, fed names holding a non-ASCII byte, a
   control byte, a quote and a backslash, parses back to the same strings. *)
let nasty = "caf\xc3\xa9 \001 \" \\"

let parsed ?(render = J.layout) doc =
  match J.parse (render doc) with
  | Ok v -> v
  | Error msg -> Alcotest.failf "emitted JSON does not parse: %s" msg

let elements = function
  | J.List l -> l
  | v -> Alcotest.failf "expected an array: %s" (J.to_string v)

let check_str what expected v key =
  Alcotest.(check (option string)) what (Some expected) (J.mem_str key v)

let test_emitters_roundtrip () =
  reset_all ();
  let recs =
    List.map
      (fun verdict ->
        { Eqcheck.label = nasty; pass = nasty; rule = nasty; verdict;
          seconds = 0.5 })
      [ Eqcheck.Proved; Eqcheck.Unknown nasty; Eqcheck.Simulated nasty ]
  in
  List.iter
    (fun r ->
      List.iter (check_str "eqcheck" nasty r) [ "label"; "pass"; "rule" ])
    (elements (parsed (Eqcheck.to_json recs)));
  List.iter
    (fun r -> check_str "eqcheck reason" nasty r "reason")
    (List.tl (elements (parsed (Eqcheck.to_json recs))));
  let diag =
    { Verify.rule_id = nasty; severity = Verify.Error; node_ids = [ 1; 2 ];
      message = nasty }
  in
  List.iter
    (fun d -> List.iter (check_str "verify" nasty d) [ "rule_id"; "message" ])
    (elements (parsed (Verify.to_json [ diag ])));
  let finding =
    { Lint_common.rule_id = nasty; sites = [ nasty ]; message = nasty }
  in
  List.iter
    (fun f ->
      List.iter (check_str "lint" nasty f) [ "rule_id"; "message" ];
      Alcotest.(check bool) "lint site" true
        (J.member "sites" f = Some (J.List [ J.Str nasty ])))
    (elements (parsed (Lint_common.to_json [ finding ])));
  Obs.Trace.enable ();
  Obs.Trace.span ~cat:nasty ~args:[ (nasty, Obs.Trace.Str nasty) ] nasty
    (fun () -> ());
  let span_args v =
    Option.bind (J.member "args" v) (J.mem_str nasty)
  in
  let check_span what v =
    List.iter (check_str what nasty v) [ "name"; "cat" ];
    Alcotest.(check (option string)) (what ^ " arg") (Some nasty) (span_args v)
  in
  List.iter (check_span "native span") (elements (parsed (Obs.Export.spans_json ())));
  List.iter
    (fun s ->
      check_span "streamed span"
        (parsed ~render:J.to_string (Obs.Export.span_json s)))
    (Obs.Trace.spans ());
  let events =
    match J.member "traceEvents" (parsed (Obs.Export.chrome_json ())) with
    | Some l -> elements l
    | None -> Alcotest.fail "no traceEvents"
  in
  List.iter
    (fun e -> if J.mem_str "ph" e = Some "X" then check_span "chrome event" e)
    events;
  Obs.Metrics.enable ();
  Obs.Metrics.set_info nasty nasty;
  let metrics = J.member "metrics" (parsed (Obs.Export.metrics_json ())) in
  reset_all ();
  Alcotest.(check (option string)) "metrics info" (Some nasty)
    (Option.bind metrics (J.mem_str nasty))

(* --- metrics registry ---------------------------------------------------------- *)

let test_metrics_counters () =
  reset_all ();
  let c = Obs.Metrics.counter "test.obs.counter" in
  Obs.Metrics.incr c;
  Alcotest.(check int) "disabled incr is a no-op" 0
    (Obs.Metrics.counter_value c);
  Obs.Metrics.enable ();
  Obs.Metrics.incr c;
  Obs.Metrics.add c 4;
  Alcotest.(check int) "incr + add" 5 (Obs.Metrics.counter_value c);
  let c' = Obs.Metrics.counter "test.obs.counter" in
  Obs.Metrics.incr c';
  Alcotest.(check int) "registration is idempotent" 6
    (Obs.Metrics.counter_value c);
  (match Obs.Metrics.gauge "test.obs.counter" with
   | _ -> Alcotest.fail "kind mismatch accepted"
   | exception Invalid_argument _ -> ());
  reset_all ()

let test_metrics_histogram () =
  reset_all ();
  Obs.Metrics.enable ();
  let h = Obs.Metrics.histogram "test.obs.hist" in
  List.iter (Obs.Metrics.observe h) [ 0; 1; 2; 3; 7; 1024 ];
  let s = Obs.Metrics.histogram_stats h in
  Alcotest.(check int) "count" 6 s.Obs.Metrics.count;
  Alcotest.(check int) "sum" 1037 s.Obs.Metrics.sum;
  Alcotest.(check int) "max" 1024 s.Obs.Metrics.max_value;
  Alcotest.(check (list (pair int int)))
    "power-of-two buckets: 0..1, [2,4), [4,8), [1024,2048)"
    [ (0, 2); (2, 2); (4, 1); (1024, 1) ]
    s.Obs.Metrics.buckets;
  reset_all ()

(* --- flow determinism under tracing -------------------------------------------- *)

(* The acceptance bar for the whole subsystem: enabling the tracer and the
   registry must not change a single byte of the flow results, serial or
   parallel. *)
let test_flow_determinism () =
  reset_all ();
  let render jobs =
    let rows =
      Report.Table.run_suite ~verify:false ~names:[ "s27" ] ~jobs ()
    in
    Report.Table.render rows ^ Report.Table.summary rows
  in
  let off = render 1 in
  Obs.Trace.enable ();
  Obs.Metrics.enable ();
  let on1 = render 1 in
  let on4 = render 4 in
  let traced = List.length (Obs.Trace.spans ()) in
  reset_all ();
  Alcotest.(check string) "tracing off vs on (jobs 1)" off on1;
  Alcotest.(check string) "tracing off vs on (jobs 4)" off on4;
  Alcotest.(check bool) "spans were actually recorded" true (traced > 0)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "obs"
    [ ("trace", q [ prop_nesting ]);
      ("trace-unit",
       [ Alcotest.test_case "disabled-zero-alloc" `Quick
           test_disabled_zero_alloc;
         Alcotest.test_case "span-exception" `Quick test_span_exception;
         Alcotest.test_case "raising-sink" `Quick test_raising_sink;
         Alcotest.test_case "span-end-args" `Quick test_span_end_args;
         Alcotest.test_case "span-gc-per-domain" `Quick
           test_span_gc_per_domain ]);
      ("export",
       [ Alcotest.test_case "chrome-golden" `Quick test_chrome_golden;
         Alcotest.test_case "spans-json-golden" `Quick test_spans_json_golden;
         Alcotest.test_case "emitters-roundtrip" `Quick
           test_emitters_roundtrip ]);
      ("json",
       q [ prop_json_roundtrip ]
       @ [ Alcotest.test_case "all-bytes" `Quick test_json_all_bytes ]);
      ("metrics",
       [ Alcotest.test_case "counters" `Quick test_metrics_counters;
         Alcotest.test_case "histogram" `Quick test_metrics_histogram ]);
      ("determinism",
       [ Alcotest.test_case "table-rows-traced-vs-not" `Quick
           test_flow_determinism ]) ]
