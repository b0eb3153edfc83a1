(* Command-line interface to the resynthesis system.

     resynth stats CIRCUIT.blif
     resynth run --flow=resynth CIRCUIT.blif -o OUT.blif [--no-verify]
     resynth dump-bench s298 -o s298.blif
     resynth table1 [--circuits ex2,s27,...]
*)

module N = Netlist.Network

let load_lib = function
  | None -> Techmap.Genlib.mcnc_lite
  | Some path -> Techmap.Genlib_io.parse_file path

let load path =
  try Ok (Netlist.Blif.parse_file path) with
  | Failure msg -> Error msg
  | Sys_error msg -> Error msg

let print_stats ~lib label net =
  let model = Sta.mapped_delay ~default:1.0 () in
  Printf.printf "%-14s %s | period %.2f | area %.1f\n" label
    (N.stats_string net)
    (Sta.clock_period net model)
    (Techmap.Mapper.mapped_area net ~lib)

(* --- stats --------------------------------------------------------------- *)

let stats_cmd path =
  let lib = Techmap.Genlib.mcnc_lite in
  match load path with
  | Error msg -> prerr_endline msg; 1
  | Ok net ->
    print_stats ~lib "input" net;
    let path_nodes = Sta.critical_path net (Sta.mapped_delay ()) in
    Printf.printf "critical path: %s\n"
      (String.concat " -> " (List.map (fun n -> n.N.name) path_nodes));
    0

(* --- run ------------------------------------------------------------------ *)

type flow = Base | Retime | Resynth

let not_equivalent = 3
let cannot_decide = 4

(* Print how strongly [a] and [b] were checked sequentially equivalent; the
   exit status: 0 proved or simulated, [not_equivalent], [cannot_decide]. *)
let check_equivalence label a b =
  match Eqcheck.check_result a b with
  | Eqcheck.Proved ->
    Printf.printf "%s: proved sequentially equivalent\n" label;
    0
  | Eqcheck.Simulated reason ->
    Printf.printf "%s: equivalent by random co-simulation only (%s)\n" label
      reason;
    0
  | Eqcheck.Refuted c ->
    Printf.printf "%s: NOT equivalent: output %s diverges in cycle %d\n" label
      c.Eqcheck.endpoint
      (List.length c.Eqcheck.trace);
    not_equivalent
  | Eqcheck.Unknown reason ->
    Printf.printf "%s: cannot decide (%s)\n" label reason;
    cannot_decide

let run_cmd flow path output verify lib_path =
  let lib = load_lib lib_path in
  match load path with
  | Error msg -> prerr_endline msg; 1
  | Ok net ->
    print_stats ~lib "input" net;
    let mapped = Core.Flow.script_delay_flow net ~lib in
    print_stats ~lib "script.delay" mapped;
    let result =
      match flow with
      | Base -> Ok mapped
      | Retime ->
        (match Core.Flow.retiming_flow mapped ~lib with
         | Ok r -> Ok r
         | Error msg -> Error ("retiming: " ^ msg))
      | Resynth ->
        let options = { Core.Resynth.default_options with Core.Resynth.lib } in
        (match Core.Flow.resynthesis_flow ~options mapped with
         | Ok (r, outcome) ->
           Printf.printf
             "resynthesis: %d stem splits, %d classes, %d moves, %d cones \
              simplified\n"
             outcome.Core.Resynth.stem_splits
             outcome.Core.Resynth.equivalence_classes
             outcome.Core.Resynth.forward_moves
             outcome.Core.Resynth.simplified_cones;
           Ok r
         | Error msg -> Error ("resynthesis: " ^ msg))
    in
    (match result with
     | Error msg -> prerr_endline msg; 1
     | Ok final ->
       print_stats ~lib "result" final;
       if verify then begin
         match check_equivalence "result vs input" net final with
         | 0 -> ()
         | status -> exit status
       end;
       (match output with
        | Some out when Filename.check_suffix out ".v" ->
          Netlist.Verilog.write_file out final;
          Printf.printf "wrote %s (structural Verilog)\n" out
        | Some out ->
          Netlist.Blif.write_file out final;
          Printf.printf "wrote %s\n" out
        | None -> ());
       0)

(* --- dump-bench ------------------------------------------------------------ *)

let dump_cmd name output =
  match Circuits.Suite.find name with
  | exception Invalid_argument msg -> prerr_endline msg; 1
  | entry ->
    let net = entry.Circuits.Suite.build () in
    let out =
      match output with Some o -> o | None -> name ^ ".blif"
    in
    Netlist.Blif.write_file out net;
    Printf.printf "wrote %s (%s)\n" out (N.stats_string net);
    0

(* --- verify ------------------------------------------------------------------ *)

let verify_cmd path_a path_b =
  match load path_a, load path_b with
  | Error m, _ | _, Error m -> prerr_endline m; 1
  | Ok a, Ok b ->
    check_equivalence (Printf.sprintf "%s and %s" path_a path_b) a b

(* --- table1 ----------------------------------------------------------------- *)

let table_cmd circuits =
  let names =
    match circuits with
    | [] -> None
    | _ :: _ -> Some circuits
  in
  let rows = Report.Table.run_suite ?names () in
  print_string (Report.Table.render rows);
  print_newline ();
  print_string (Report.Table.summary rows);
  0

(* --- cmdliner wiring ---------------------------------------------------------- *)

open Cmdliner

(* exit statuses of an equivalence check, shared by [run] and [verify] *)
let check_exits =
  [ Cmd.Exit.info 0
      ~doc:
        "success: the pair was proved sequentially equivalent, or found \
         equivalent by random co-simulation only (64 runs of 128 cycles, \
         when the pair is past the BDD check's 28-latch cap or 4M-node \
         budget); stdout says which.";
    Cmd.Exit.info 1 ~doc:"a circuit could not be read, or the flow failed.";
    Cmd.Exit.info not_equivalent
      ~doc:
        "the circuits are NOT equivalent; stdout names the diverging output \
         and cycle.";
    Cmd.Exit.info cannot_decide
      ~doc:
        "cannot decide: the pair is past the BDD check's latch cap or node \
         budget and a latch has an unknown initial value, so random \
         co-simulation does not apply either." ]
  @ List.filter (fun e -> Cmd.Exit.info_code e <> Cmd.Exit.ok) Cmd.Exit.defaults

let path_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"CIRCUIT.blif")

let output_arg =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT.blif")

let stats_t = Term.(const stats_cmd $ path_arg)

let flow_arg =
  let flows = [ ("base", Base); ("retime", Retime); ("resynth", Resynth) ] in
  Arg.(value & opt (enum flows) Resynth & info [ "flow" ] ~docv:"FLOW")

let verify_arg =
  Arg.(value & flag & info [ "no-verify" ] ~doc:"Skip equivalence checking.")

let lib_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "lib" ] ~docv:"LIB.genlib" ~doc:"Gate library (genlib format).")

let run_t =
  Term.(
    const (fun flow path output no_verify lib_path ->
        run_cmd flow path output (not no_verify) lib_path)
    $ flow_arg $ path_arg $ output_arg $ verify_arg $ lib_arg)

let name_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH")

let dump_t = Term.(const dump_cmd $ name_arg $ output_arg)

let circuits_arg =
  Arg.(value & opt (list string) [] & info [ "circuits" ] ~docv:"NAMES")

let table_t = Term.(const table_cmd $ circuits_arg)

let verify_t =
  let a = Arg.(required & pos 0 (some file) None & info [] ~docv:"A.blif") in
  let b = Arg.(required & pos 1 (some file) None & info [] ~docv:"B.blif") in
  Term.(const verify_cmd $ a $ b)

(* --- gen-fsm ------------------------------------------------------------------ *)

let gen_fsm_cmd seed nstates ninputs noutputs output =
  let machine =
    Circuits.Fsm.random ~seed ~name:"fsm" ~nstates ~ninputs ~noutputs ()
  in
  let kiss = Circuits.Kiss.of_fsm machine in
  (match output with
   | Some path when Filename.check_suffix path ".blif" ->
     Netlist.Blif.write_file path (Circuits.Fsm.to_network machine);
     Printf.printf "wrote %s\n" path
   | Some path ->
     Circuits.Kiss.write_file path kiss;
     Printf.printf "wrote %s\n" path
   | None -> print_string (Circuits.Kiss.to_string kiss));
  0

let gen_fsm_t =
  let seed = Arg.(value & opt int 1 & info [ "seed" ]) in
  let nstates = Arg.(value & opt int 8 & info [ "states" ]) in
  let ninputs = Arg.(value & opt int 2 & info [ "inputs" ]) in
  let noutputs = Arg.(value & opt int 2 & info [ "outputs" ]) in
  Term.(const gen_fsm_cmd $ seed $ nstates $ ninputs $ noutputs $ output_arg)

let cmds =
  [ Cmd.v (Cmd.info "stats" ~doc:"Print circuit statistics and critical path")
      stats_t;
    Cmd.v
      (Cmd.info "run"
         ~doc:
           "Run a flow (base = script.delay, retime = +retiming+comb.opt, \
            resynth = the paper's technique) on a BLIF circuit and check \
            the result against it (unless --no-verify)"
         ~exits:check_exits)
      run_t;
    Cmd.v (Cmd.info "dump-bench" ~doc:"Write a suite benchmark as BLIF") dump_t;
    Cmd.v
      (Cmd.info "gen-fsm"
         ~doc:
           "Generate a random complete FSM; write KISS2 (default) or BLIF \
            (-o x.blif)")
      gen_fsm_t;
    Cmd.v
      (Cmd.info "verify"
         ~doc:
           "Check two BLIF circuits for sequential equivalence from their \
            initial states and print how strongly: proved, equivalent by \
            random co-simulation only, NOT equivalent, or cannot decide"
         ~exits:check_exits)
      verify_t;
    Cmd.v (Cmd.info "table1" ~doc:"Regenerate Table I") table_t ]

let () =
  let doc = "performance-driven resynthesis via register equivalence" in
  exit (Cmd.eval' (Cmd.group (Cmd.info "resynth" ~doc) cmds))
