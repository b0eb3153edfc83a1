let header =
  let line = String.make 86 '-' in
  Printf.sprintf
    "%s\n%-8s | %21s | %21s | %21s\n%-8s | %6s %6s %7s | %6s %6s %7s | %6s %6s %7s\n%s"
    line "" "Script.delay" "+Retiming+Comb.Opt." "+Resynthesis" "Circuit"
    "Reg." "Clk." "Area" "Reg." "Clk." "Area" "Reg." "Clk." "Area" line

let stats_cells = function
  | Some s ->
    Printf.sprintf "%6d %6.2f %7.1f" s.Core.Flow.regs
      (Netlist.Delay.to_float s.Core.Flow.clk)
      s.Core.Flow.area
  | None -> Printf.sprintf "%6s %6s %7s" "-" "-" "-"

let row_to_string row =
  Printf.sprintf "%-8s | %s | %s | %s" row.Core.Flow.circuit
    (stats_cells (Some row.Core.Flow.base))
    (stats_cells row.Core.Flow.retimed.Core.Flow.stats)
    (stats_cells row.Core.Flow.resynthesized.Core.Flow.stats)

let render rows =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (row_to_string row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.add_string buf (String.make 86 '-');
  Buffer.add_char buf '\n';
  (* footnotes *)
  List.iter
    (fun row ->
      let note which (a : Core.Flow.attempt) =
        let line fmt =
          Printf.ksprintf (Buffer.add_string buf)
            ("  %s: %s " ^^ fmt ^^ "\n") row.Core.Flow.circuit which
        in
        match (a.Core.Flow.stats, a.Core.Flow.verified) with
        | None, _ -> line "failed/declined: %s" a.Core.Flow.note
        | Some _, (None | Some Eqcheck.Proved) -> ()
        | Some _, Some (Eqcheck.Simulated reason) ->
          line "simulated: random co-simulation only (%s)" reason
        | Some _, Some (Eqcheck.Unknown reason) ->
          line "unknown: cannot decide (%s)" reason
        | Some _, Some (Eqcheck.Refuted c) ->
          line "NOT VERIFIED: output %s diverges in cycle %d" c.Eqcheck.endpoint
            (List.length c.Eqcheck.trace)
      in
      note "retiming" row.Core.Flow.retimed;
      note "resynthesis" row.Core.Flow.resynthesized;
      match row.Core.Flow.resynth_outcome with
      | Some o when o.Core.Resynth.applied ->
        Buffer.add_string buf
          (Printf.sprintf
             "  %s: resynthesis: %d stem splits, %d classes, %d moves, %d \
              cones simplified by DC_ret\n"
             row.Core.Flow.circuit o.Core.Resynth.stem_splits
             o.Core.Resynth.equivalence_classes o.Core.Resynth.forward_moves
             o.Core.Resynth.simplified_cones)
      | Some _ | None -> ())
    rows;
  Buffer.contents buf

let summary rows =
  let ratios field =
    List.filter_map
      (fun row ->
        match
          ( row.Core.Flow.retimed.Core.Flow.stats,
            row.Core.Flow.resynthesized.Core.Flow.stats )
        with
        | Some r, Some x ->
          let a = field x and b = field r in
          if b > 0.0 then Some (a /. b) else None
        | _, _ -> None)
      rows
  in
  let mean = function
    | [] -> nan
    | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
  in
  let count pred = List.length (List.filter pred rows) in
  let retime_failed =
    count (fun r -> r.Core.Flow.retimed.Core.Flow.stats = None)
  in
  let resynth_declined =
    count (fun r -> r.Core.Flow.resynthesized.Core.Flow.stats = None)
  in
  Printf.sprintf
    "rows: %d | retiming failed: %d | resynthesis declined: %d\n\
     on rows where both applied - resynthesis vs retiming:\n\
     mean register ratio: %.3f | mean clock ratio: %.3f | mean area ratio: \
     %.3f\n"
    (List.length rows) retime_failed resynth_declined
    (mean (ratios (fun s -> float_of_int s.Core.Flow.regs)))
    (mean (ratios (fun s -> Netlist.Delay.to_float s.Core.Flow.clk)))
    (mean (ratios (fun s -> s.Core.Flow.area)))

(* [jobs] > 1 runs the rows on a fork-join pool of at most [jobs] workers,
   one task per row; inside a row everything runs in program order.  Every
   row builds its own network from its entry's fixed seed, and its BDD
   scopes live in the unique table of the domain that runs it (DESIGN §12).
   Rows stay independent — scope accounting makes node budgets blind to
   table warmth — so the joined output is byte-identical to a serial run.

   [run_suite_timed] additionally reports each row's wall-clock seconds (in
   entry order); timings never influence the rows themselves.  Benchmarks
   use them for slowest-row accounting. *)
let run_suite_timed ?(verify = true) ?(verify_each = false)
    ?(eqcheck_each = false) ?resynth_options ?names
    ?(jobs = 1) () =
  let entries =
    match names with
    | None -> Circuits.Suite.entries
    | Some ns -> List.map Circuits.Suite.find ns
  in
  let timed_rows =
    Core.Parallel.map_list ~jobs
      (fun e ->
        Obs.Trace.span ~cat:"suite"
          ~args:[ ("circuit", Obs.Trace.Str e.Circuits.Suite.name) ]
          ("row/" ^ e.Circuits.Suite.name)
          (fun () ->
            let t0 = Unix.gettimeofday () in (* lint-waive: nondet/wall-clock — per-row seconds feed only the bench timing report *)
            let net = e.Circuits.Suite.build () in
            let row =
              Core.Flow.run_all ~verify ~verify_each ~eqcheck_each
                ?resynth_options ~name:e.Circuits.Suite.name net
            in
            (* lint-waive: nondet/wall-clock — measurement only, as above. *)
            (row, (e.Circuits.Suite.name, Unix.gettimeofday () -. t0))))
      entries
  in
  (List.map fst timed_rows, List.map snd timed_rows)

let run_suite ?verify ?verify_each ?eqcheck_each ?resynth_options ?names
    ?jobs () =
  fst
    (run_suite_timed ?verify ?verify_each ?eqcheck_each ?resynth_options
       ?names ?jobs ())

let eqcheck_records rows = List.concat_map (fun r -> r.Core.Flow.eqcheck) rows

let eqcheck_summary rows =
  let proved, refuted, unknown = Eqcheck.counts (eqcheck_records rows) in
  Printf.sprintf
    "eqcheck: %d pass verdicts - %d proved, %d refuted, %d unknown\n"
    (proved + refuted + unknown)
    proved refuted unknown
