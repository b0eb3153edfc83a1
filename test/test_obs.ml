(* lib/obs tests: span nesting (qcheck), the zero-allocation disabled path,
   a deterministic Chrome-export golden via the fake clock, metrics registry
   semantics, and flow determinism with tracing on vs off. *)

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

(* --- Chrome exporter golden ---------------------------------------------------- *)

(* Fake clock ticking 1 ns per read makes timestamps deterministic: outer
   starts at 1, inner spans 2..3, outer ends at 4. *)
let test_chrome_golden () =
  reset_all ();
  let t = ref 0L in
  Obs.Trace.set_clock
    (Some
       (fun () ->
         t := Int64.add !t 1L;
         !t));
  Obs.Trace.enable ();
  Obs.Trace.span ~cat:"flow" "outer" (fun () ->
      Obs.Trace.span ~args:[ ("k", Obs.Trace.Str "v") ] "inner" (fun () -> ()));
  let out = Obs.Export.chrome_json () in
  reset_all ();
  Alcotest.(check bool) "object with traceEvents" true
    (String.starts_with ~prefix:"{\"traceEvents\": [" out
    && String.ends_with ~suffix:"]}" out);
  Alcotest.(check bool) "process metadata" true
    (contains out
       "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \
        \"args\": {\"name\": \"retiming-resynthesis\"}}");
  Alcotest.(check bool) "track 0 named" true
    (contains out "\"args\": {\"name\": \"domain 0\"}");
  Alcotest.(check bool) "outer complete event" true
    (contains out
       "{\"name\": \"outer\", \"cat\": \"flow\", \"ph\": \"X\", \"pid\": 1, \
        \"tid\": 0, \"ts\": 0.001, \"dur\": 0.003, \"args\": {");
  Alcotest.(check bool) "inner complete event with args" true
    (contains out
       "{\"name\": \"inner\", \"cat\": \"span\", \"ph\": \"X\", \"pid\": 1, \
        \"tid\": 0, \"ts\": 0.002, \"dur\": 0.001, \"args\": {\"k\": \"v\", \
        \"gc_minor_words\"")

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
  let out = Obs.Export.spans_json () in
  reset_all ();
  Alcotest.(check bool) "native span array" true
    (String.starts_with ~prefix:"[\n" out
    && contains out
         "\"name\": \"only\", \"cat\": \"span\", \"track\": 0, \"depth\": 0, \
          \"start_ns\": 10, \"dur_ns\": 10")

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
         Alcotest.test_case "span-end-args" `Quick test_span_end_args ]);
      ("export",
       [ Alcotest.test_case "chrome-golden" `Quick test_chrome_golden;
         Alcotest.test_case "spans-json-golden" `Quick test_spans_json_golden ]);
      ("metrics",
       [ Alcotest.test_case "counters" `Quick test_metrics_counters;
         Alcotest.test_case "histogram" `Quick test_metrics_histogram ]);
      ("determinism",
       [ Alcotest.test_case "table-rows-traced-vs-not" `Quick
           test_flow_determinism ]) ]
