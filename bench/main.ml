(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, then times the key kernels with Bechamel.

   Sections:
   1. Section III example (Figs. 4-6): delay 3 -> 2 (retiming) -> 1
      (resynthesis).
   2. Table I: the 21-row benchmark suite under the three flows, with
      verification and comparison against the paper's qualitative
      expectations.
   3. Ablations: DC exploitation mode, post-restructuring retiming, and the
      regression guard (DESIGN.md, Section 5).
   4. Bechamel micro-benchmarks of the core kernels. *)

module N = Netlist.Network

let line = String.make 86 '='

let section title =
  Printf.printf "\n%s\n== %s\n%s\n%!" line title line

(* BENCH_*.json emission goes through the obs metrics registry: each section
   publishes its measurements as gauges/infos under a "bench.<section>"
   prefix, then dumps that namespace.  Every file records the worker count
   its section ran at ([jobs]) and the cores the machine reports, so one
   schema says what hardware a figure was measured on. *)
let emit_bench ~file ~prefix ~title ~unit ~jobs values =
  Obs.Metrics.enable ();
  Obs.Metrics.set_info (prefix ^ ".benchmark") title;
  Obs.Metrics.set_info (prefix ^ ".unit") unit;
  List.iter
    (fun (key, v) ->
      Obs.Metrics.set_gauge (Obs.Metrics.gauge (prefix ^ "." ^ key)) v)
    (("jobs", float_of_int jobs)
     :: ("cores", float_of_int (Core.Parallel.cores ()))
     :: ("jobs_exceed_cores",
         if Core.Parallel.oversubscribed ~jobs then 1.0 else 0.0)
     :: values);
  Obs.Json.write_file file (Obs.Export.metrics_json ~prefix ());
  Printf.printf "  -> %s\n" file

(* --- 1. Section III example ---------------------------------------------------- *)

let section3_example () =
  section "Section III example (Figs. 4-6): 3 -> 2 -> 1 gate delays";
  let net = Circuits.Paper_example.circuit () in
  let model = Sta.unit_delay in
  Printf.printf "original:      period %.1f, %d registers  (paper: 3 gate delays)\n"
    (Sta.clock_period net model) (N.num_latches net);
  (match Retiming.Minperiod.retime_min_period net ~model with
   | Ok (retimed, p) ->
     Printf.printf
       "retimed:       period %.1f, %d registers  (paper: 2 gate delays)\n" p
       (N.num_latches retimed)
   | Error f ->
     Printf.printf "retimed:       FAILED (%s)\n"
       (Retiming.Minperiod.failure_message f));
  let options =
    { Core.Resynth.default_options with
      Core.Resynth.model;
      remap = false }
  in
  let outcome = Core.Resynth.resynthesize ~options net in
  Printf.printf
    "resynthesized: period %.1f, %d registers  (paper: 1 gate delay)\n"
    (Sta.clock_period outcome.Core.Resynth.network model)
    (N.num_latches outcome.Core.Resynth.network);
  Printf.printf
    "  mechanism: %d stem splits, %d equivalence classes, %d forward moves, \
     %d cones simplified by DC_ret\n"
    outcome.Core.Resynth.stem_splits outcome.Core.Resynth.equivalence_classes
    outcome.Core.Resynth.forward_moves outcome.Core.Resynth.simplified_cones;
  Printf.printf "  sequential equivalence: %s\n"
    (Eqcheck.verdict_name
       (Eqcheck.check_result net outcome.Core.Resynth.network))

(* --- 2. Table I ------------------------------------------------------------------ *)

let expectation_matches (e : Circuits.Suite.entry) (row : Core.Flow.row) =
  let retime_failed = row.Core.Flow.retimed.Core.Flow.stats = None in
  let resynth_declined = row.Core.Flow.resynthesized.Core.Flow.stats = None in
  match e.Circuits.Suite.expectation with
  | Circuits.Suite.Normal -> not resynth_declined
  | Circuits.Suite.Retiming_fails -> retime_failed
  | Circuits.Suite.Resynthesis_na | Circuits.Suite.Resynthesis_hurts ->
    resynth_declined

let table1 () =
  section "Table I: script.delay | +retiming+comb.opt | +resynthesis";
  let t0 = Unix.gettimeofday () in
  let rows = Report.Table.run_suite () in
  print_string (Report.Table.render rows);
  print_newline ();
  print_string (Report.Table.summary rows);
  (* expectation comparison *)
  Printf.printf "\npaper-vs-measured (qualitative expectations from the text):\n";
  List.iter2
    (fun (e : Circuits.Suite.entry) row ->
      Printf.printf "  %-8s expected=%-18s matched=%b  (%s)\n"
        e.Circuits.Suite.name
        (match e.Circuits.Suite.expectation with
         | Circuits.Suite.Normal -> "normal"
         | Circuits.Suite.Retiming_fails -> "retiming-fails"
         | Circuits.Suite.Resynthesis_na -> "resynthesis-n.a."
         | Circuits.Suite.Resynthesis_hurts -> "resynthesis-hurts")
        (expectation_matches e row)
        e.Circuits.Suite.comment)
    Circuits.Suite.entries rows;
  let checks =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun (a : Core.Flow.attempt) -> a.Core.Flow.verified)
          [ r.Core.Flow.retimed; r.Core.Flow.resynthesized ])
      rows
  in
  let count name =
    List.length
      (List.filter (fun v -> Eqcheck.verdict_name v = name) checks)
  in
  Printf.printf
    "\nflow results checked against their input: %d proved, %d simulated, \
     %d unknown, %d refuted\n"
    (count "proved") (count "simulated") (count "unknown") (count "refuted");
  Printf.printf "table regenerated in %.1fs\n" (Unix.gettimeofday () -. t0);
  rows

(* --- 3. Ablations ------------------------------------------------------------------ *)

let ablations () =
  section "Ablations (DESIGN.md section 5)";
  let variants =
    [ ("dc-mode=substitution",
       { Core.Resynth.default_options with
         Core.Resynth.dc_mode = Core.Resynth.Substitution });
      ("no-post-retiming",
       { Core.Resynth.default_options with Core.Resynth.retime_post = false });
      ("no-guard",
       { Core.Resynth.default_options with
         Core.Resynth.guard_regression = false }) ]
  in
  List.iter
    (fun (name, options) ->
      let t0 = Unix.gettimeofday () in
      let rows =
        Report.Table.run_suite ~verify:false ~resynth_options:options ()
      in
      Printf.printf "\n--- %s (%.1fs)\n%s" name
        (Unix.gettimeofday () -. t0)
        (Report.Table.summary rows);
      if name = "no-guard" then begin
        let regressions =
          List.length
            (List.filter
               (fun r ->
                 match r.Core.Flow.resynthesized.Core.Flow.stats with
                 | Some s ->
                   s.Core.Flow.clk > r.Core.Flow.base.Core.Flow.clk +. 1e-9
                 | None -> false)
               rows)
        in
        Printf.printf
          "  unguarded clock regressions vs script.delay: %d rows (the \
           paper's s420/s510 phenomenon)\n"
          regressions
      end)
    variants

(* --- 3d. Packed vs legacy cube kernel ------------------------------------------------ *)

(* The same workload runs against the packed kernel ({!Logic.Cube}) and the
   legacy one-variant-per-literal arrays ({!Cube_ref}), built from
   identical cube strings, with checksums compared so a representation bug
   cannot masquerade as a speedup. *)

module type CUBE_OPS = sig
  type t
  val of_string : string -> t
  val contains : t -> t -> bool
  val intersect : t -> t -> t option
  val distance : t -> t -> int
  val supercube : t -> t -> t
  val lit_count : t -> int
  val compare : t -> t -> int
end

module Cube_workload (C : CUBE_OPS) = struct
  let build strings = Array.map C.of_string strings

  (* Each pass returns an int checksum over the whole sweep. *)
  let contains_sweep cubes () =
    let count = ref 0 and n = Array.length cubes in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if C.contains cubes.(i) cubes.(j) then incr count
      done
    done;
    !count

  let intersect_sweep cubes () =
    let acc = ref 0 and n = Array.length cubes in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        match C.intersect cubes.(i) cubes.(j) with
        | Some c -> acc := !acc + C.lit_count c
        | None -> incr acc
      done
    done;
    !acc

  let distance_sweep cubes () =
    let acc = ref 0 and n = Array.length cubes in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        acc := !acc + C.distance cubes.(i) cubes.(j)
      done
    done;
    !acc

  let supercube_fold cubes () =
    let acc = ref cubes.(0) in
    for i = 1 to Array.length cubes - 1 do
      acc := C.supercube !acc cubes.(i)
    done;
    C.lit_count !acc

  let sort_pass cubes () =
    let copy = Array.copy cubes in
    Array.sort C.compare copy;
    C.lit_count copy.(0)

  let passes cubes =
    [ ("contains-sweep", contains_sweep cubes);
      ("intersect-sweep", intersect_sweep cubes);
      ("distance-sweep", distance_sweep cubes);
      ("supercube-fold", supercube_fold cubes);
      ("sort", sort_pass cubes) ]
end

module Packed_work = Cube_workload (Logic.Cube)
module Legacy_work = Cube_workload (Cube_ref)

let random_cube_strings st ~vars ~cubes =
  Array.init cubes (fun _ ->
      String.init vars (fun _ ->
          (* half don't-care keeps sweeps from degenerating to all-disjoint *)
          match Random.State.int st 4 with
          | 0 -> '0'
          | 1 -> '1'
          | _ -> '-'))

(* Adaptive timer: grow the repetition count until a pass takes [min_s]
   wall-clock, then report seconds per pass. *)
let time_pass ?(min_s = 0.2) f =
  ignore (f ());
  let rec calibrate reps =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do ignore (f ()) done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt >= min_s then dt /. float_of_int reps else calibrate (reps * 4)
  in
  calibrate 1

(* Machine speed drifts over the seconds a series of samples spans, so
   minima taken separately for two variants compare different moments.
   Instead each [a] sample is paired with the [b] sample right after it,
   and a comparison is the median of the per-pair ratios, reported with
   their extremes so the figure carries its own spread. *)
let sample_pairs = 9

let timed_pairs ?min_s a b =
  List.init sample_pairs (fun _ ->
      let ta = time_pass ?min_s a in
      let tb = time_pass ?min_s b in
      (ta, tb))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Two-level minimization on its two set representations: the same ON/DC
   covers of 8-14 variables (the widths of DC_ret cones) through the cover
   path and through [Logic.Minimize.minimize], which takes the dense
   truth-table path at these widths.  The results must agree cube for cube
   (exit 1 otherwise).  Returns the JSON values: median times and the
   median, min and max of the per-pair cover/dense speedups. *)
let minimize_bench ~min_s st =
  let cover vars lo hi =
    let cubes = lo + Random.State.int st (hi - lo + 1) in
    Logic.Cover.of_strings vars
      (Array.to_list (random_cube_strings st ~vars ~cubes))
  in
  let cases =
    List.concat_map
      (fun vars ->
        [ (cover vars 12 24, cover vars 0 6); (cover vars 20 32, cover vars 0 0) ])
      [ 8; 9; 10; 11; 12; 13; 14 ]
  in
  let pass minimize () =
    List.fold_left
      (fun acc (f, dc) -> acc + Logic.Cover.lit_count (minimize ~dc f))
      0 cases
  in
  let by_cover = Logic.Minimize.Internal.by_cover
  and dense = Logic.Minimize.minimize in
  List.iter
    (fun (f, dc) ->
      if
        not
          (List.equal Logic.Cube.equal (by_cover ~dc f).Logic.Cover.cubes
             (dense ~dc f).Logic.Cover.cubes)
      then begin
        Printf.eprintf
          "logic bench: dense and cover paths differ on a %d-variable cover\n"
          f.Logic.Cover.nvars;
        exit 1
      end)
    cases;
  let pairs =
    timed_pairs ~min_s (pass (fun ~dc f -> by_cover ~dc f))
      (pass (fun ~dc f -> dense ~dc f))
  in
  let speedups = List.map (fun (c, d) -> c /. d) pairs in
  let cover_s = median (List.map fst pairs)
  and dense_s = median (List.map snd pairs) in
  let speedup = median speedups in
  let lo = List.fold_left min infinity speedups
  and hi = List.fold_left max neg_infinity speedups in
  Printf.printf
    "  minimize: dense vs cover path, %d covers of 8-14 vars: cover %.2f ms  \
     dense %.2f ms per pass (medians), speedup %.2fx (median of %d pairs, \
     range %.2fx..%.2fx; results identical)\n%!"
    (List.length cases) (cover_s *. 1e3) (dense_s *. 1e3) speedup sample_pairs
    lo hi;
  [ ("minimize.covers", float_of_int (List.length cases));
    ("minimize.pairs", float_of_int sample_pairs);
    ("minimize.cover_ns", cover_s *. 1e9);
    ("minimize.dense_ns", dense_s *. 1e9);
    ("minimize.speedup", speedup);
    ("minimize.speedup_min", lo);
    ("minimize.speedup_max", hi) ]

let logic_bench ?(emit_json = true) ?(quick = false) () =
  section "Packed vs legacy cube kernel (identical random workloads)";
  let widths = if quick then [ 16; 64 ] else [ 16; 63; 128; 200 ] in
  let cubes = if quick then 96 else 192 in
  let min_s = if quick then 0.05 else 0.2 in
  let st = Random.State.make [| 0x5eed; 0xcbe |] in
  let results = ref [] in
  List.iter
    (fun vars ->
      let strings = random_cube_strings st ~vars ~cubes in
      let packed = Packed_work.build strings
      and legacy = Legacy_work.build strings in
      List.iter2
        (fun (name, packed_pass) (name', legacy_pass) ->
          assert (name = name');
          let packed_sum = packed_pass () and legacy_sum = legacy_pass () in
          if packed_sum <> legacy_sum then begin
            Printf.eprintf
              "logic bench: checksum mismatch on %s vars=%d (packed %d, \
               legacy %d)\n"
              name vars packed_sum legacy_sum;
            exit 1
          end;
          let legacy_s = time_pass ~min_s legacy_pass in
          let packed_s = time_pass ~min_s packed_pass in
          let speedup = legacy_s /. packed_s in
          Printf.printf
            "  %-16s vars=%-3d cubes=%d  legacy %10.1f us  packed %8.1f us  \
             speedup %6.2fx\n%!"
            name vars cubes (legacy_s *. 1e6) (packed_s *. 1e6) speedup;
          results := (name, vars, legacy_s, packed_s, speedup) :: !results)
        (Packed_work.passes packed) (Legacy_work.passes legacy))
    widths;
  let results = List.rev !results in
  let geomean =
    exp
      (List.fold_left (fun acc (_, _, _, _, s) -> acc +. log s) 0.0 results
      /. float_of_int (List.length results))
  in
  Printf.printf "  geometric-mean speedup: %.2fx\n" geomean;
  let minimize = minimize_bench ~min_s st in
  if emit_json then
    emit_bench ~file:"BENCH_logic.json" ~prefix:"bench.logic"
      ~title:"packed vs legacy cube kernel; minimize dense vs cover path"
      ~unit:"ns_per_pass" ~jobs:1
      (("cubes_per_set", float_of_int cubes)
       :: ("geomean_speedup", geomean)
       :: minimize
       @ List.concat_map
            (fun (name, vars, legacy_s, packed_s, speedup) ->
              let key = Printf.sprintf "%s.vars%d" name vars in
              [ (key ^ ".legacy_ns", legacy_s *. 1e9);
                (key ^ ".packed_ns", packed_s *. 1e9);
                (key ^ ".speedup", speedup) ])
            results);
  geomean

(* --- 3e. Serial vs domain-parallel Table I ------------------------------------------- *)

(* The parallel sections run one worker per core, at most 4, unless --jobs
   says otherwise: more workers than cores would time domain scheduling,
   not scaling. *)
let default_jobs () = min 4 (Core.Parallel.cores ())

let suite_bench ?(emit_json = true) ?(verify = true) ?(verify_each = false)
    ?(eqcheck_each = false) ?names ?(jobs = default_jobs ()) () =
  section
    (Printf.sprintf "Table I suite: serial vs %d-domain parallel run%s%s" jobs
       (if eqcheck_each then " (--eqcheck-each)" else "")
       (if verify_each then " (--verify-each)" else ""));
  let run jobs =
    let t0 = Unix.gettimeofday () in
    let rows, times =
      Report.Table.run_suite_timed ~verify ~verify_each ~eqcheck_each ?names
        ~jobs ()
    in
    let dt = Unix.gettimeofday () -. t0 in
    let out =
      Report.Table.render rows ^ Report.Table.summary rows
      ^ (if eqcheck_each then Report.Table.eqcheck_summary rows else "")
    in
    (out, dt, times)
  in
  let serial_out, serial_s, serial_times = run 1 in
  let parallel_out, parallel_s, _ = run jobs in
  if not (String.equal serial_out parallel_out) then begin
    Printf.eprintf
      "suite bench: --jobs 1 and --jobs %d outputs DIFFER — determinism bug\n"
      jobs;
    exit 1
  end;
  let speedup = serial_s /. parallel_s in
  let rows =
    match names with
    | Some ns -> List.length ns
    | None -> List.length Circuits.Suite.entries
  in
  (* with row-granular parallelism the slowest row lower-bounds the
     parallel wall clock no matter how many workers run *)
  let slowest_row, slowest_row_s =
    List.fold_left
      (fun (bn, bs) (n, s) -> if s > bs then (n, s) else (bn, bs))
      ("", 0.0) serial_times
  in
  let slowest_row_share =
    100.0 *. slowest_row_s /. Float.max 1e-9 serial_s
  in
  Printf.printf
    "  %d rows, verify=%b: serial %.1fs, %d jobs %.1fs, speedup %.2fx \
     (output byte-identical)\n"
    rows verify serial_s jobs parallel_s speedup;
  Printf.printf
    "  slowest row: %s at %.2fs serial (%.0f%% of the suite's serial time)\n"
    slowest_row slowest_row_s slowest_row_share;
  Printf.printf "  available cores (recommended_domain_count): %d\n"
    (Core.Parallel.cores ());
  if Core.Parallel.oversubscribed ~jobs then
    Printf.printf
      "  warning: %d jobs > %d cores — the parallel phase measures domain \
       scheduling overhead, not scaling\n"
      jobs (Core.Parallel.cores ());
  if emit_json then begin
    Obs.Metrics.enable ();
    Obs.Metrics.set_info "bench.suite.slowest_row" slowest_row;
    emit_bench ~file:"BENCH_suite.json" ~prefix:"bench.suite"
      ~title:"Table I suite, serial vs domain-parallel" ~unit:"s_per_run" ~jobs
      [ ("rows", float_of_int rows);
        ("verify", if verify then 1.0 else 0.0);
        ("verify_each", if verify_each then 1.0 else 0.0);
        ("eqcheck_each", if eqcheck_each then 1.0 else 0.0);
        ("serial_s", serial_s);
        ("parallel_s", parallel_s);
        ("speedup", speedup);
        ("slowest_row_s", slowest_row_s);
        ("slowest_row_share_pct", slowest_row_share);
        ("byte_identical", 1.0) ]
  end;
  speedup

(* --- 3f. Per-domain BDD tables ------------------------------------------------------ *)

(* Each domain interns BDD nodes in its own table, so the same cone
   functions built by rows on different workers are interned once per
   worker.  Two phases over the same --eqcheck-each suite workload, in one
   process:
     A. serial: every row on the main domain's table;
     B. [jobs] domains: byte-identical output required.  The main domain is
        worker 0 and meets its table warm from phase A; every other worker
        starts cold.
   Both phases report the nodes they allocated, so B shows the cost of
   re-interning across workers. *)
let bdd_bench ?(emit_json = true) ?(quick = false) ?(jobs = default_jobs ())
    () =
  section "Per-domain BDD tables: serial vs parallel (--eqcheck-each)";
  let names =
    if quick then Some [ "s27"; "s208"; "s298"; "s344"; "s382"; "s400" ]
    else None
  in
  let render rows =
    Report.Table.render rows ^ Report.Table.summary rows
    ^ Report.Table.eqcheck_summary rows
  in
  let run jobs =
    let nodes0 = Bdd.total_allocated () in
    let bytes0 = Gc.allocated_bytes () in
    let t0 = Unix.gettimeofday () in
    let rows, times =
      Report.Table.run_suite_timed ~verify:false ~eqcheck_each:true ?names
        ~jobs ()
    in
    let dt = Unix.gettimeofday () -. t0 in
    let bytes = Gc.allocated_bytes () -. bytes0 in
    let nodes = Bdd.total_allocated () - nodes0 in
    (render rows, rows, dt, nodes, bytes, times)
  in
  let rows_n =
    match names with
    | Some ns -> List.length ns
    | None -> List.length Circuits.Suite.entries
  in
  let out_a, rows_a, a_s, a_nodes, a_bytes, a_times = run 1 in
  let proved, refuted, unknown =
    Eqcheck.counts (Report.Table.eqcheck_records rows_a)
  in
  if refuted > 0 then begin
    Printf.eprintf "bdd bench: %d Refuted pass verdicts on a real flow\n"
      refuted;
    exit 1
  end;
  if Core.Parallel.oversubscribed ~jobs then
    Printf.printf
      "  warning: %d jobs > %d cores — parallel phase measures scheduling, \
       not scaling\n"
      jobs (Core.Parallel.cores ());
  let out_b, _, b_s, b_nodes, b_bytes, _ = run jobs in
  if not (String.equal out_a out_b) then begin
    Printf.eprintf
      "bdd bench: --jobs 1 and --jobs %d outputs DIFFER — determinism bug\n"
      jobs;
    exit 1
  end;
  let slowest_row, slowest_row_s =
    List.fold_left
      (fun (bn, bs) (n, s) -> if s > bs then (n, s) else (bn, bs))
      ("", 0.0) a_times
  in
  let slowest_row_share = 100.0 *. slowest_row_s /. Float.max 1e-9 a_s in
  Printf.printf
    "  %d rows, eqcheck-each, verdicts %d proved / %d refuted / %d unknown \
     (both phases byte-identical)\n"
    rows_n proved refuted unknown;
  Printf.printf
    "  A serial:          %5.1fs  %9d nodes  %7.1f Mwords heap\n" a_s a_nodes
    (a_bytes /. 8e6);
  Printf.printf
    "  B %d jobs:          %5.1fs  %9d nodes  %7.1f Mwords heap\n" jobs b_s
    b_nodes (b_bytes /. 8e6);
  Printf.printf
    "  slowest row: %s at %.2fs serial (%.0f%% of phase A)\n" slowest_row
    slowest_row_s slowest_row_share;
  if emit_json then begin
    Obs.Metrics.enable ();
    Obs.Metrics.set_info "bench.bdd.slowest_row" slowest_row;
    emit_bench ~file:"BENCH_bdd.json" ~prefix:"bench.bdd"
      ~title:"per-domain BDD tables on the --eqcheck-each suite, serial vs \
              --jobs N"
      ~unit:"nodes_per_run" ~jobs
      [ ("rows", float_of_int rows_n);
        ("serial_s", a_s);
        ("parallel_s", b_s);
        ("serial_nodes", float_of_int a_nodes);
        ("parallel_nodes", float_of_int b_nodes);
        ("serial_heap_mwords", a_bytes /. 8e6);
        ("parallel_heap_mwords", b_bytes /. 8e6);
        ("slowest_row_s", slowest_row_s);
        ("slowest_row_share_pct", slowest_row_share);
        ("proved", float_of_int proved);
        ("refuted", float_of_int refuted);
        ("unknown", float_of_int unknown);
        ("byte_identical", 1.0) ]
  end

(* --- 3g. Per-pass checker overhead ---------------------------------------------------- *)

(* Cost of one per-pass checker flag: the same suite subset with the checker
   off and on.  Sequential-equivalence verification is off in both runs so
   the delta isolates the checker.  One pass over these rows takes only a
   few hundredths of a second, so each sample is a [time_pass] of at least
   0.2 s, in [timed_pairs]: the overhead is the median of the per-pair on/off
   ratios.  The checker must be observation-only: rows that render
   differently exit 1.  [extra] turns the checked rows into further JSON
   values (and may itself exit on a bad verdict). *)

let checker_bench ~flag ~file ~prefix ~names ?(extra = fun _ -> []) run =
  section
    (Printf.sprintf "Per-pass checker: %s overhead (verify=false both runs)"
       flag);
  let rows_off = run false and rows_on = run true in
  if
    not
      (String.equal
         (Report.Table.render rows_off)
         (Report.Table.render rows_on))
  then begin
    Printf.eprintf
      "bench: %s changed the flow results — the checker is not \
       observation-only\n"
      flag;
    exit 1
  end;
  let extra = extra rows_on in
  let pairs = timed_pairs (fun () -> run false) (fun () -> run true) in
  let pct ratio = (ratio -. 1.0) *. 100.0 in
  let ratios = List.map (fun (off, on) -> on /. off) pairs in
  let off_s = median (List.map fst pairs)
  and on_s = median (List.map snd pairs) in
  let overhead = pct (median ratios) in
  let overhead_min = pct (List.fold_left min infinity ratios)
  and overhead_max = pct (List.fold_left max neg_infinity ratios) in
  Printf.printf
    "  %d rows: checker off %.4fs, on %.4fs per pass (medians), overhead \
     %+.1f%% (median of %d pairs, range %+.1f%%..%+.1f%%; results \
     byte-identical)\n"
    (List.length names) off_s on_s overhead sample_pairs overhead_min
    overhead_max;
  emit_bench ~file ~prefix ~title:(flag ^ " overhead on Table I subset")
    ~unit:"s_per_run" ~jobs:1
    ([ ("rows", float_of_int (List.length names));
       ("pairs", float_of_int sample_pairs);
       ("checker_off_s", off_s);
       ("checker_on_s", on_s);
       ("overhead_pct", overhead);
       ("overhead_min_pct", overhead_min);
       ("overhead_max_pct", overhead_max);
       ("byte_identical", 1.0) ]
     @ extra)

(* The netlist verifier: static rules plus the revision audit at every pass
   boundary. *)
let verifier_bench
    ?(names = [ "s27"; "s208"; "s298"; "s344"; "s382"; "s400"; "s444"; "s526" ])
    () =
  checker_bench ~flag:"--verify-each" ~file:"BENCH_verify.json"
    ~prefix:"bench.verify" ~names (fun verify_each ->
      Report.Table.run_suite ~verify:false ~verify_each ~names ())

(* The semantic equivalence analyzer, with its verdict counts: it must report
   zero Refuted on real flows. *)
let eqcheck_bench ?(names = [ "s27"; "bbtas"; "ex2"; "s208"; "s298"; "s344" ])
    () =
  let verdicts rows =
    let proved, refuted, unknown =
      Eqcheck.counts (Report.Table.eqcheck_records rows)
    in
    if refuted > 0 then begin
      Printf.eprintf "eqcheck bench: %d Refuted pass verdicts on a real flow\n"
        refuted;
      exit 1
    end;
    Printf.printf "  verdicts: %d proved, %d refuted, %d unknown\n" proved
      refuted unknown;
    [ ("proved", float_of_int proved);
      ("refuted", float_of_int refuted);
      ("unknown", float_of_int unknown) ]
  in
  checker_bench ~flag:"--eqcheck-each" ~file:"BENCH_eqcheck.json"
    ~prefix:"bench.eqcheck" ~names ~extra:verdicts (fun eqcheck_each ->
      Report.Table.run_suite ~verify:false ~eqcheck_each ~names ())

(* --- serve round-trip --------------------------------------------------------------- *)

(* Cold vs warm request through the in-process serving engine: the same
   benchmark twice on one engine.  The first request parses/builds the
   circuit into the engine's pristine cache and populates the BDD table; the
   second copies the cached network and rebuilds its BDDs onto
   already-interned nodes.  The two result payloads must be byte-identical —
   warmth may only change latency and allocation, never output.  The engine
   runs outside a pool (jobs 1), so both requests run inline on this domain
   and share its BDD table: under a pool either worker may claim either
   request, and a warm request on a cold worker's table allocates the whole
   cold count again. *)
let serve_bench ?(emit_json = true) () =
  section "serve: cold vs warm round-trip (in-process engine, jobs 1)";
  Obs.Metrics.enable ();
  let counter_delta name delta =
    match List.assoc_opt name delta with
    | Some (Obs.Metrics.Counter n) -> n
    | _ -> 0
  in
  let eng = Serve.Engine.create () in
  let round id =
    let snap = Obs.Metrics.snapshot () in
    let bdd0 = Bdd.total_allocated () in
    let t0 = Unix.gettimeofday () in
    let reply =
      Serve.Engine.submit eng ~id:(Some id)
        (Serve.Protocol.Benchmark "s27")
        Serve.Protocol.default_submit_options
    in
    (match Obs.Json.mem_bool "ok" reply with
     | Some true -> ()
     | _ -> failwith ("serve bench: submit rejected: "
                      ^ Obs.Json.to_string reply));
    Serve.Engine.drain eng;
    let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
    let delta = Obs.Metrics.delta snap in
    let payload =
      match Obs.Json.member "result" (Serve.Engine.result eng id) with
      | Some p -> Obs.Json.to_string p
      | None -> failwith "serve bench: request did not complete"
    in
    ( payload,
      ms,
      Bdd.total_allocated () - bdd0,
      counter_delta "serve.cache.hits" delta,
      counter_delta "serve.cache.misses" delta )
  in
  let cold = round "cold" in
  let warm = round "warm" in
  let p_cold, cold_ms, cold_bdd, cold_hits, cold_misses = cold in
  let p_warm, warm_ms, warm_bdd, warm_hits, warm_misses = warm in
  let identical = p_cold = p_warm in
  Printf.printf
    "  cold: %7.1f ms  %8d BDD nodes allocated  cache %d hit / %d miss\n"
    cold_ms cold_bdd cold_hits cold_misses;
  Printf.printf
    "  warm: %7.1f ms  %8d BDD nodes allocated  cache %d hit / %d miss\n"
    warm_ms warm_bdd warm_hits warm_misses;
  Printf.printf "  result payloads byte-identical: %b\n" identical;
  if not identical then
    failwith "serve bench: warm result diverged from cold result";
  if emit_json then
    emit_bench ~file:"BENCH_serve.json" ~prefix:"bench.serve"
      ~title:"daemon engine round-trip: cold vs warm request (s27)"
      ~unit:"ms" ~jobs:1
      [ ("cold_ms", cold_ms);
        ("warm_ms", warm_ms);
        ("speedup", if warm_ms > 0.0 then cold_ms /. warm_ms else 0.0);
        ("cold_bdd_allocated", float_of_int cold_bdd);
        ("warm_bdd_allocated", float_of_int warm_bdd);
        ("cold_cache_hits", float_of_int cold_hits);
        ("cold_cache_misses", float_of_int cold_misses);
        ("warm_cache_hits", float_of_int warm_hits);
        ("warm_cache_misses", float_of_int warm_misses);
        ("byte_identical", if identical then 1.0 else 0.0) ]

(* --- 4. Bechamel kernels ------------------------------------------------------------ *)

let bechamel_kernels () =
  section "Kernel timings (Bechamel, ols on monotonic clock)";
  let open Bechamel in
  let paper_net = Circuits.Paper_example.circuit () in
  let s27 = Circuits.S27.circuit () in
  let s298 = (Circuits.Suite.find "s298").Circuits.Suite.build () in
  let mapped_s298 =
    Core.Flow.script_delay_flow s298 ~lib:Techmap.Genlib.mcnc_lite
  in
  let mapped_s27 =
    Core.Flow.script_delay_flow s27 ~lib:Techmap.Genlib.mcnc_lite
  in
  let big_cover =
    let f = Logic.Cover.of_strings 8 [ "1111----"; "----1111"; "11--11--" ] in
    Logic.Cover.union f (Logic.Cover.complement f)
  in
  let tests =
    Test.make_grouped ~name:"kernels"
      [ Test.make ~name:"figure:resynthesize-paper-example"
          (Staged.stage (fun () ->
               let options =
                 { Core.Resynth.default_options with
                   Core.Resynth.model = Sta.unit_delay;
                   remap = false }
               in
               ignore (Core.Resynth.resynthesize ~options paper_net)));
        Test.make ~name:"table1:flow-script-delay-s27"
          (Staged.stage (fun () ->
               ignore
                 (Core.Flow.script_delay_flow s27 ~lib:Techmap.Genlib.mcnc_lite)));
        Test.make ~name:"table1:flow-retiming-s27"
          (Staged.stage (fun () ->
               ignore
                 (Core.Flow.retiming_flow mapped_s27 ~lib:Techmap.Genlib.mcnc_lite)));
        Test.make ~name:"table1:flow-resynthesis-s298"
          (Staged.stage (fun () ->
               ignore (Core.Flow.resynthesis_flow mapped_s298)));
        (* 8 variables: since the dense path serves every cover of at most
           14 variables, this times the truth-table kernel; bench --logic
           compares it with the cover path *)
        Test.make ~name:"kernel:espresso-minimize"
          (Staged.stage (fun () -> ignore (Logic.Minimize.minimize big_cover)));
        Test.make ~name:"kernel:bdd-reachability-s27"
          (Staged.stage (fun () ->
               ignore (Dontcare.Reach.unreachable_states s27)));
        Test.make ~name:"kernel:min-period-retiming-s298"
          (Staged.stage (fun () ->
               ignore
                 (Retiming.Minperiod.retime_min_period mapped_s298
                    ~model:Sta.mapped_delay)));
        Test.make ~name:"kernel:tech-mapping-s27"
          (Staged.stage (fun () ->
               ignore
                 (Techmap.Mapper.map s27 ~lib:Techmap.Genlib.mcnc_lite)));
        (* the mapping layer on the suite's largest circuit: subject graph,
           tagging and tree covering over about 1.6k gates *)
        (let s5378 = (Circuits.Suite.find "s5378").Circuits.Suite.build () in
         Test.make ~name:"kernel:tech-mapping-s5378"
           (Staged.stage (fun () ->
                ignore
                  (Techmap.Mapper.map s5378 ~lib:Techmap.Genlib.mcnc_lite))));
        (* STA on the suite's largest circuit: one binding edit followed
           by a period re-query *)
        (let s5378 = (Circuits.Suite.find "s5378").Circuits.Suite.build () in
         let model = Sta.mapped_delay in
         let nodes = Array.of_list (N.logic_nodes s5378) in
         let counter = ref 0 in
         let edit () =
           incr counter;
           let v = nodes.(!counter * 37 mod Array.length nodes) in
           N.set_binding s5378 v
             (Some
                { N.gate_name = "g";
                  gate_area = 1.0;
                  gate_delay = (if !counter land 1 = 0 then 3.0 else 1.0) })
         in
         Test.make ~name:"sta:full-reanalysis-edit-s5378"
           (Staged.stage (fun () ->
                edit ();
                ignore (Sta.clock_period s5378 model)))) ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name est acc ->
        let ns =
          match Analyze.OLS.estimates est with
          | Some (x :: _) -> x
          | Some [] | None -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  List.iter
    (fun (name, ns) ->
      let pretty =
        if ns > 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
        else Printf.sprintf "%8.2f us" (ns /. 1e3)
      in
      Printf.printf "  %-42s %s/run\n" name pretty)
    rows

let usage =
  "usage: bench/main.exe [SECTION] [OPTION]...\n\
  \  SECTION: --smoke --logic --suite --verifier --eqcheck --bdd --serve\n\
  \           --kernels; none runs the full evaluation (many minutes)\n\
  \  OPTION:  --quick --eqcheck-each --verify-each --names a,b,c --jobs N\n\
  \           --trace FILE --trace-format chrome|json --metrics \
   --metrics-json FILE\n"

let bad_usage msg =
  Printf.eprintf "bench: %s\n%s" msg usage;
  exit 2

(* Reject what the harness would otherwise ignore: a misspelt flag would
   fall through to the full run. *)
let rec check_args = function
  | [] -> ()
  | ("--smoke" | "--logic" | "--suite" | "--verifier" | "--eqcheck"
    | "--bdd" | "--serve" | "--kernels" | "--quick" | "--eqcheck-each"
    | "--verify-each" | "--metrics") :: rest ->
    check_args rest
  | ("--names" | "--jobs" | "--trace" | "--trace-format" | "--metrics-json")
    :: _ :: rest ->
    check_args rest
  | arg :: _ -> bad_usage ("unknown or incomplete argument " ^ arg)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  check_args args;
  let smoke = List.mem "--smoke" args in
  let logic_only = List.mem "--logic" args in
  let suite_only = List.mem "--suite" args in
  let verifier_only = List.mem "--verifier" args in
  let eqcheck_only = List.mem "--eqcheck" args in
  let bdd_only = List.mem "--bdd" args in
  let serve_only = List.mem "--serve" args in
  let kernels_only = List.mem "--kernels" args in
  let eqcheck_each = List.mem "--eqcheck-each" args in
  let verify_each = List.mem "--verify-each" args in
  let quick = List.mem "--quick" args in
  (* value of a "--flag v" pair, if present *)
  let arg_value flag =
    let rec find = function
      | f :: v :: _ when f = flag -> Some v
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let names =
    Option.map (String.split_on_char ',') (arg_value "--names")
  in
  let jobs =
    match arg_value "--jobs" with
    | None -> None
    | Some n ->
      (match int_of_string_opt n with
       | Some j when j >= 1 -> Some j
       | Some _ -> None
       | None -> bad_usage "--jobs expects an integer")
  in
  let trace = arg_value "--trace" in
  let trace_format =
    match arg_value "--trace-format" with
    | None | Some "chrome" -> `Chrome
    | Some "json" -> `Json
    | Some _ ->
      prerr_endline "bench: --trace-format expects chrome or json";
      exit 2
  in
  let metrics = List.mem "--metrics" args in
  let metrics_json = arg_value "--metrics-json" in
  if trace <> None then Obs.Trace.enable ();
  if metrics || metrics_json <> None || trace <> None then
    Obs.Metrics.enable ();
  Printf.printf
    "Retiming-induced state register equivalence: evaluation harness%s\n"
    (if smoke then " (smoke)"
     else if logic_only then " (logic)"
     else if suite_only then " (suite)"
     else if verifier_only then " (verifier)"
     else if eqcheck_only then " (eqcheck)"
     else if bdd_only then " (bdd)"
     else if serve_only then " (serve)"
     else if kernels_only then " (kernels)"
     else "");
  if logic_only then ignore (logic_bench ~quick ())
  else if suite_only then
    ignore
      (suite_bench ~verify:(not quick) ~verify_each ~eqcheck_each ?names
         ?jobs ())
  else if verifier_only then verifier_bench ?names ()
  else if eqcheck_only then eqcheck_bench ?names ()
  else if bdd_only then bdd_bench ~quick ?jobs ()
  else if serve_only then serve_bench ()
  else if kernels_only then bechamel_kernels ()
  else if smoke then begin
    (* CI-sized pass: the Section III example end to end plus the quick
       cube-kernel comparison; no JSON, no Bechamel quotas *)
    section3_example ();
    ignore (logic_bench ~emit_json:false ~quick:true ());
    Printf.printf "\nsmoke ok.\n"
  end
  else begin
    section3_example ();
    ignore (table1 ());
    ablations ();
    ignore (logic_bench ());
    ignore (suite_bench ?jobs ());
    verifier_bench ();
    eqcheck_bench ();
    bdd_bench ?jobs ();
    serve_bench ();
    bechamel_kernels ();
    Printf.printf "\ndone.\n"
  end;
  (match trace with
   | Some file ->
     Obs.Json.write_file file
       (match trace_format with
        | `Chrome -> Obs.Export.chrome_json ()
        | `Json -> Obs.Export.spans_json ());
     Printf.printf "trace: %d spans written to %s\n"
       (List.length (Obs.Trace.spans ()))
       file
   | None -> ());
  (match metrics_json with
   | Some file ->
     Bdd.publish_stats ();
     Techmap.publish_stats ();
     Obs.Json.write_file file (Obs.Export.metrics_json ());
     Printf.printf "metrics: written to %s\n" file
   | None -> ());
  if metrics then begin
    Bdd.publish_stats ();
    Techmap.publish_stats ();
    print_string (Obs.Export.text_summary ())
  end
