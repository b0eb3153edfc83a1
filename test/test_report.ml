(* Table I rendering and summary tests (pure formatting logic). *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let stats regs clk area = { Core.Flow.regs; clk; area }

let attempt ?(note = "") ?(verified = Some Eqcheck.Proved) stats =
  { Core.Flow.stats; note; verified }

let row name base retimed resynthesized =
  { Core.Flow.circuit = name;
    base;
    retimed;
    resynthesized;
    resynth_outcome = None;
    eqcheck = [];
    verify_diags = [] }

let sample_rows =
  [ row "alpha" (stats 10 5_000 100.0)
      (attempt (Some (stats 12 4_000 120.0)))
      (attempt (Some (stats 11 3_500 110.0)));
    row "beta" (stats 6 3_000 60.0)
      (attempt ~note:"no retiming achieves the target period" None)
      (attempt (Some (stats 6 2_500 66.0)));
    row "gamma" (stats 4 2_000 40.0)
      (attempt (Some (stats 4 2_000 44.0)))
      (attempt ~note:"critical path has no retimable gates" None) ]

let test_row_format () =
  let line = Report.Table.row_to_string (List.nth sample_rows 0) in
  Alcotest.(check bool) "has name" true
    (String.length line > 5 && String.sub line 0 5 = "alpha");
  (* three groups of three numeric cells *)
  Alcotest.(check bool) "mentions 3.50" true
    (contains line "3.50")

let test_row_dashes_on_failure () =
  let line = Report.Table.row_to_string (List.nth sample_rows 1) in
  Alcotest.(check bool) "dashes for failed flow" true
    (contains line "-")

let test_render_footnotes () =
  let text = Report.Table.render sample_rows in
  Alcotest.(check bool) "retiming failure noted" true
    (contains text "no retiming achieves the target period");
  Alcotest.(check bool) "resynthesis decline noted" true
    (contains text "no retimable gates");
  Alcotest.(check bool) "proofs need no footnote" false
    (contains text "alpha: ")

(* Every checked result that is not a proof gets a strength footnote; a
   refutation keeps the NOT VERIFIED flag and names the diverging output. *)
let test_render_strength_footnotes () =
  let cex =
    { Eqcheck.endpoint = "z";
      leaves = [];
      init_pre = [];
      init_post = [];
      trace = [ []; []; [] ];
      sim_confirmed = true }
  in
  let s = Some (stats 4 2_000 40.0) in
  let text =
    Report.Table.render
      [ row "delta" (stats 4 2_000 40.0)
          (attempt ~verified:(Some (Eqcheck.Simulated "state-bit cap")) s)
          (attempt ~verified:(Some (Eqcheck.Refuted cex)) s);
        row "eps" (stats 4 2_000 40.0)
          (attempt ~verified:(Some (Eqcheck.Unknown "no init")) s)
          (attempt ~verified:None s) ]
  in
  Alcotest.(check bool) "simulated footnote" true
    (contains text
       "  delta: retiming simulated: random co-simulation only (state-bit \
        cap)\n");
  Alcotest.(check bool) "refuted footnote" true
    (contains text
       "  delta: resynthesis NOT VERIFIED: output z diverges in cycle 3\n");
  Alcotest.(check bool) "unknown footnote" true
    (contains text "  eps: retiming unknown: cannot decide (no init)\n");
  Alcotest.(check bool) "unchecked result has no footnote" false
    (contains text "eps: resynthesis")

let test_summary_counts () =
  let text = Report.Table.summary sample_rows in
  Alcotest.(check bool) "rows: 3" true (contains text "rows: 3");
  Alcotest.(check bool) "retiming failed: 1" true
    (contains text "retiming failed: 1");
  Alcotest.(check bool) "resynthesis declined: 1" true
    (contains text "resynthesis declined: 1")

let test_summary_ratios () =
  (* only alpha has both flows: reg ratio 11/12, clk 3.5/4.0, area 110/120 *)
  let text = Report.Table.summary sample_rows in
  Alcotest.(check bool) "reg ratio 0.917" true
    (contains text "0.917");
  Alcotest.(check bool) "clk ratio 0.875" true
    (contains text "0.875")

let test_run_suite_subset () =
  let rows = Report.Table.run_suite ~verify:false ~names:[ "s27" ] () in
  Alcotest.(check int) "one row" 1 (List.length rows);
  Alcotest.(check string) "named" "s27" (List.hd rows).Core.Flow.circuit

(* The domain-parallel runner must be invisible in the output: the rendered
   table and summary for any [jobs] value are byte-identical to a serial
   run. *)
let test_run_suite_jobs_deterministic () =
  let names = [ "ex2"; "bbtas"; "s27"; "s208" ] in
  let render jobs =
    let rows = Report.Table.run_suite ~verify:false ~names ~jobs () in
    Report.Table.render rows ^ Report.Table.summary rows
  in
  let serial = render 1 in
  Alcotest.(check string) "jobs=4 matches serial" serial (render 4);
  Alcotest.(check string) "jobs=2 matches serial" serial (render 2)

(* Same invariant with the per-pass analyzers on: every worker domain runs
   eqcheck boundary checks against the shared BDD table, and --verify-each
   runs the verifier at every boundary.  The table, the verdict stream and
   the verifier diagnostics must still be byte-identical to the serial
   run.  Per-record check durations are wall-clock and excluded;
   each verdict itself (including the Unknown reason, which embeds BDD
   node budgets) must match. *)
let test_run_suite_jobs_deterministic_eqcheck () =
  let names = [ "s27"; "s208"; "s298" ] in
  let render jobs =
    let rows =
      Report.Table.run_suite ~verify:false ~verify_each:true
        ~eqcheck_each:true ~names ~jobs ()
    in
    let verdicts =
      List.map
        (fun r ->
          match r.Eqcheck.verdict with
          | Eqcheck.Proved -> "proved"
          | Eqcheck.Refuted _ -> "refuted"
          | Eqcheck.Simulated reason -> "simulated: " ^ reason
          | Eqcheck.Unknown reason -> "unknown: " ^ reason)
        (Report.Table.eqcheck_records rows)
    in
    let diags =
      String.concat ""
        (List.map (fun r -> Verify.render r.Core.Flow.verify_diags) rows)
    in
    Report.Table.render rows ^ Report.Table.summary rows
    ^ Report.Table.eqcheck_summary rows
    ^ String.concat "\n" verdicts ^ diags
  in
  let serial = render 1 in
  Alcotest.(check string)
    "jobs=4 matches serial (eqcheck-each + verify-each)" serial (render 4)

let test_parallel_map () =
  let items = Array.init 57 Fun.id in
  let square x = x * x in
  Alcotest.(check (array int))
    "parallel map = serial map"
    (Array.map square items)
    (Core.Parallel.map ~jobs:4 square items);
  (* deterministic failure: the lowest-indexed raiser wins *)
  match
    Core.Parallel.map ~jobs:4
      (fun x -> if x >= 10 then failwith (string_of_int x) else x)
      items
  with
  | _ -> Alcotest.fail "expected Worker_failure"
  | exception Core.Parallel.Worker_failure (i, Failure msg) ->
    Alcotest.(check int) "lowest failing index" 10 i;
    Alcotest.(check string) "original exception" "10" msg
  | exception e -> raise e

let () =
  Alcotest.run "report"
    [ ( "table",
        [ Alcotest.test_case "row format" `Quick test_row_format;
          Alcotest.test_case "failure dashes" `Quick test_row_dashes_on_failure;
          Alcotest.test_case "footnotes" `Quick test_render_footnotes;
          Alcotest.test_case "strength footnotes" `Quick
            test_render_strength_footnotes;
          Alcotest.test_case "summary counts" `Quick test_summary_counts;
          Alcotest.test_case "summary ratios" `Quick test_summary_ratios;
          Alcotest.test_case "run subset" `Quick test_run_suite_subset;
          Alcotest.test_case "jobs determinism" `Quick
            test_run_suite_jobs_deterministic;
          Alcotest.test_case "jobs determinism (eqcheck-each)" `Quick
            test_run_suite_jobs_deterministic_eqcheck;
          Alcotest.test_case "parallel map" `Quick test_parallel_map ] ) ]
