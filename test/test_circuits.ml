(* Benchmark-circuit tests: the Section III paper example reproduces the
   published delay sequence; FSMs are complete and deterministic; s27 matches
   its published behaviour; the Table I suite builds and validates. *)

module N = Netlist.Network

let test_paper_example_original_delay () =
  let net = Circuits.Paper_example.circuit () in
  Alcotest.(check int) "3 gate delays"
    Circuits.Paper_example.expected_original_delay
    (Sta.clock_period net Sta.unit_delay)

let test_paper_example_retimed_delay () =
  let net = Circuits.Paper_example.circuit () in
  match Retiming.Minperiod.retime_min_period net ~model:Sta.unit_delay with
  | Ok (retimed, period) ->
    Alcotest.(check int) "2 gate delays"
      Circuits.Paper_example.expected_retimed_delay period;
    Alcotest.(check bool) "equivalent" true (Oracle.seq_equivalent net retimed)
  | Error f -> Alcotest.fail (Retiming.Minperiod.failure_message f)

let test_paper_example_resynthesized_delay () =
  let net = Circuits.Paper_example.circuit () in
  let options =
    { Core.Resynth.default_options with
      Core.Resynth.model = Sta.unit_delay;
      remap = false }
  in
  let outcome = Core.Resynth.resynthesize ~options net in
  Alcotest.(check bool) "applied" true outcome.Core.Resynth.applied;
  Alcotest.(check bool) "dc simplification fired" true
    (outcome.Core.Resynth.simplified_cones >= 1);
  Alcotest.(check int) "1 gate delay"
    Circuits.Paper_example.expected_resynthesized_delay
    (Sta.clock_period outcome.Core.Resynth.network Sta.unit_delay);
  Alcotest.(check bool) "equivalent" true
    (Oracle.seq_equivalent net outcome.Core.Resynth.network);
  Alcotest.(check bool) "no more registers than retiming would use" true
    (N.num_latches outcome.Core.Resynth.network <= 4)

let test_paper_example_substitution_mode () =
  let net = Circuits.Paper_example.circuit () in
  let options =
    { Core.Resynth.default_options with
      Core.Resynth.model = Sta.unit_delay;
      remap = false;
      dc_mode = Core.Resynth.Substitution }
  in
  let outcome = Core.Resynth.resynthesize ~options net in
  Alcotest.(check bool) "applied" true outcome.Core.Resynth.applied;
  Alcotest.(check int) "1 gate delay" 1_000
    (Sta.clock_period outcome.Core.Resynth.network Sta.unit_delay);
  Alcotest.(check bool) "equivalent" true
    (Oracle.seq_equivalent net outcome.Core.Resynth.network)

(* --- FSM generator ------------------------------------------------------------ *)

let prop_fsm_complete =
  QCheck.Test.make ~count:30 ~name:"generated FSMs are deterministic+complete"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let m =
        Circuits.Fsm.random ~seed ~name:"m" ~nstates:7 ~ninputs:3 ~noutputs:2 ()
      in
      Circuits.Fsm.check_complete m)

let test_fsm_state_bits () =
  let m name nstates =
    Circuits.Fsm.random ~seed:1 ~name ~nstates ~ninputs:2 ~noutputs:1 ()
  in
  Alcotest.(check int) "6 states -> 3 bits" 3
    (Circuits.Fsm.state_bits (m "a" 6));
  Alcotest.(check int) "2 states -> 1 bit" 1 (Circuits.Fsm.state_bits (m "b" 2));
  Alcotest.(check int) "48 states -> 6 bits" 6
    (Circuits.Fsm.state_bits (m "c" 48))

let prop_fsm_network_matches_table =
  QCheck.Test.make ~count:15 ~name:"FSM network simulates the transition table"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let m =
        Circuits.Fsm.random ~seed ~name:"m" ~nstates:5 ~ninputs:2 ~noutputs:2 ()
      in
      let net = Circuits.Fsm.to_network m in
      (* walk 30 random steps, tracking the abstract state alongside *)
      let rng = Random.State.make [| seed + 7 |] in
      let state = ref (Sim.Simulate.binary_initial_state net) in
      let abstract = ref 0 in
      let ok = ref true in
      for _ = 1 to 30 do
        let point =
          Array.init m.Circuits.Fsm.ninputs (fun _ -> Random.State.bool rng)
        in
        let pi name =
          (* input names are in<i> *)
          let i = int_of_string (String.sub name 2 (String.length name - 2)) in
          point.(i)
        in
        let t =
          List.find
            (fun t ->
              t.Circuits.Fsm.from_state = !abstract
              && Logic.Cube.eval t.Circuits.Fsm.input_cube point)
            m.Circuits.Fsm.transitions
        in
        let state', outs = Sim.Simulate.step net ~pi ~state:!state in
        List.iteri
          (fun o expected ->
            match List.assoc_opt (Printf.sprintf "out%d" o) outs with
            | Some got -> if got <> expected then ok := false
            | None -> ok := false)
          (Array.to_list t.Circuits.Fsm.outputs);
        state := state';
        abstract := t.Circuits.Fsm.to_state
      done;
      !ok)

(* --- KISS2 ----------------------------------------------------------------------- *)

let sample_kiss =
  {|# a 3-state controller
.i 2
.o 1
.p 6
.s 3
.r idle
0- idle idle 0
1- idle work 0
-0 work work 1
-1 work done 1
-- done idle 0
|}

let test_kiss_parse () =
  let k = Circuits.Kiss.parse_string sample_kiss in
  Alcotest.(check int) "inputs" 2 k.Circuits.Kiss.ninputs;
  Alcotest.(check int) "outputs" 1 k.Circuits.Kiss.noutputs;
  Alcotest.(check (list string)) "states" [ "idle"; "work"; "done" ]
    k.Circuits.Kiss.states;
  Alcotest.(check string) "reset" "idle" k.Circuits.Kiss.reset;
  Alcotest.(check int) "terms" 5 (List.length k.Circuits.Kiss.terms)

let test_kiss_roundtrip () =
  let k = Circuits.Kiss.parse_string sample_kiss in
  let k2 = Circuits.Kiss.parse_string (Circuits.Kiss.to_string k) in
  Alcotest.(check int) "same terms" (List.length k.Circuits.Kiss.terms)
    (List.length k2.Circuits.Kiss.terms);
  Alcotest.(check string) "same reset" k.Circuits.Kiss.reset k2.Circuits.Kiss.reset

let test_kiss_to_network () =
  let k = Circuits.Kiss.parse_string sample_kiss in
  let net = Circuits.Kiss.to_network ~name:"ctl" k in
  N.check net;
  (* walk the machine: idle --(1-)--> work --(-1)--> done --> idle *)
  let state = Sim.Simulate.binary_initial_state net in
  let pi_of bits name =
    let i = int_of_string (String.sub name 2 (String.length name - 2)) in
    List.nth bits i
  in
  let s1, o1 = Sim.Simulate.step net ~pi:(pi_of [ true; false ]) ~state in
  Alcotest.(check bool) "idle emits 0" false (List.assoc "out0" o1);
  let s2, o2 = Sim.Simulate.step net ~pi:(pi_of [ false; true ]) ~state:s1 in
  Alcotest.(check bool) "work emits 1" true (List.assoc "out0" o2);
  let _, o3 = Sim.Simulate.step net ~pi:(pi_of [ false; false ]) ~state:s2 in
  Alcotest.(check bool) "done emits 0" false (List.assoc "out0" o3)

let prop_kiss_fsm_roundtrip =
  QCheck.Test.make ~count:25 ~name:"fsm -> kiss -> fsm preserves the network"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let m =
        Circuits.Fsm.random ~seed ~name:"m" ~nstates:6 ~ninputs:3 ~noutputs:2 ()
      in
      let k = Circuits.Kiss.of_fsm m in
      let back = Circuits.Kiss.to_fsm ~name:"m" k in
      let a = Circuits.Fsm.to_network m and b = Circuits.Fsm.to_network back in
      Oracle.seq_equivalent a b)

let test_kiss_errors () =
  Alcotest.(check bool) "missing headers rejected" true
    (try ignore (Circuits.Kiss.parse_string "0- a b 1\n"); false
     with Failure _ -> true);
  Alcotest.(check bool) "bad width rejected" true
    (try
       ignore (Circuits.Kiss.parse_string ".i 2\n.o 1\n0 a b 1\n");
       false
     with Failure _ -> true)

(* --- s27 ------------------------------------------------------------------------ *)

let test_s27_shape () =
  let net = Circuits.S27.circuit () in
  N.check net;
  Alcotest.(check int) "4 inputs" 4 (List.length (N.inputs net));
  Alcotest.(check int) "1 output" 1 (List.length (N.outputs net));
  Alcotest.(check int) "3 flip-flops" 3 (N.num_latches net);
  Alcotest.(check int) "10 gates" 10 (N.num_logic net)

let test_s27_behaviour () =
  (* First cycles with all inputs 0 from the all-zero state:
     G14=1, G12=NOR(0,0)=1, G8=AND(1,0)=0, G15=1, G16=0, G9=NAND(0,1)=1,
     G11=NOR(0,1)=0, G17=NOT(0)=1. *)
  let net = Circuits.S27.circuit () in
  let state = Sim.Simulate.binary_initial_state net in
  let _, outs = Sim.Simulate.step net ~pi:(fun _ -> false) ~state in
  Alcotest.(check bool) "G17 = 1" true (List.assoc "G17" outs)

let test_s27_output_depends_on_inputs () =
  (* With G3=1 from the zero state: G16=1, G12=1 so G15=1, hence G9=0 and
     G11=NOR(0,0)=1, making G17=0 — whereas all-zero inputs give G17=1. *)
  let net = Circuits.S27.circuit () in
  let state = Sim.Simulate.binary_initial_state net in
  let _, outs0 = Sim.Simulate.step net ~pi:(fun _ -> false) ~state in
  let _, outs1 = Sim.Simulate.step net ~pi:(fun n -> n = "G3") ~state in
  Alcotest.(check bool) "G17 with G3=0" true (List.assoc "G17" outs0);
  Alcotest.(check bool) "G17 with G3=1" false (List.assoc "G17" outs1)

(* --- suite ----------------------------------------------------------------------- *)

let test_suite_entries () =
  Alcotest.(check int) "21 rows" 21 (List.length Circuits.Suite.entries);
  let names = List.map (fun e -> e.Circuits.Suite.name) Circuits.Suite.entries in
  Alcotest.(check bool) "unique names" true
    (List.length (List.sort_uniq compare names) = List.length names)

let test_suite_builds () =
  (* build and validate every entry's network (cheap; flows are exercised by
     the benchmark harness) *)
  List.iter
    (fun e ->
      let net = e.Circuits.Suite.build () in
      N.check net;
      if N.num_latches net = 0 then
        Alcotest.failf "%s has no registers" e.Circuits.Suite.name)
    Circuits.Suite.entries

let test_suite_find () =
  let e = Circuits.Suite.find "s27" in
  Alcotest.(check string) "found" "s27" e.Circuits.Suite.name;
  Alcotest.check_raises "unknown"
    (Invalid_argument "Suite.find: unknown benchmark nope") (fun () ->
      ignore (Circuits.Suite.find "nope"))

let test_suite_deterministic () =
  let e = Circuits.Suite.find "s298" in
  let a = e.Circuits.Suite.build () and b = e.Circuits.Suite.build () in
  Alcotest.(check bool) "same circuit each build" true
    (Sim.Equiv.seq_equal_random ~seed:5 ~vectors:8 ~length:64 a b = None)

(* --- generators ------------------------------------------------------------------ *)

module G = Circuits.Generators

let same_blif seed profile =
  Netlist.Blif.to_string (G.random_sequential ~seed profile)
  = Netlist.Blif.to_string
      (Oracle.Generators_ref.random_sequential ~seed profile)

(* The indexed generator against the list-rebuilding one it replaced
   ([Oracle.Generators_ref]): byte-identical BLIF, so every random draw is
   the same.  Profiles cover no latches, no gates, no outputs, stem_bias 0
   and 1, pipelines and fan-in bounds 2-4.  At stem_bias 1 every fanin is a
   latch, so a gate needs as many latches as its fan-in. *)
let prop_generator_matches_reference =
  QCheck.Test.make ~count:300 ~name:"generator matches the reference"
    QCheck.(
      pair
        (quad (int_range 0 10_000) (int_range 1 6) (int_range 0 4)
           (oneofl [ 0; 0; 1; 3; 6; 12 ]))
        (quad (int_range 0 60) (int_range 2 4) bool
           (oneofl [ 0.0; 1.0; 0.5; 0.25 ])))
    (fun ((seed, npi, npo, nlatch), (ngates, max_fanin, feedback, stem_bias)) ->
      let nlatch =
        if stem_bias = 1.0 && nlatch > 0 then max nlatch max_fanin else nlatch
      in
      same_blif seed
        { G.npi; npo; nlatch; ngates; max_fanin; feedback; stem_bias })

(* the profiles of the suite's generated rows, s5378 included *)
let test_generator_suite_profiles () =
  List.iter
    (fun (seed, npi, npo, nlatch, ngates, stem_bias) ->
      if
        not
          (same_blif seed
             { G.npi; npo; nlatch; ngates; max_fanin = 3; feedback = true;
               stem_bias })
      then Alcotest.failf "seed %d differs from the reference" seed)
    [ (208, 10, 1, 8, 60, 0.5); (298, 3, 6, 14, 80, 0.5);
      (344, 9, 11, 15, 100, 0.5); (382, 3, 6, 21, 100, 0.5);
      (420, 18, 1, 16, 120, 0.5); (510, 19, 7, 6, 130, 0.5);
      (641, 15, 12, 19, 200, 0.0); (1238, 14, 14, 18, 300, 0.0);
      (5378, 35, 45, 150, 1600, 0.15) ]

(* At stem_bias 1 a gate wanting more distinct fanins than there are
   latches would redraw forever, and with no PI the latches have no
   placeholder data; the generator rejects such profiles up front.
   Profiles whose gates can all be served still build. *)
let test_generator_rejects_starved_profile () =
  let p =
    { G.npi = 3; npo = 1; nlatch = 1; ngates = 5; max_fanin = 3;
      feedback = true; stem_bias = 1.0 }
  in
  Alcotest.check_raises "one latch, fan-in up to 3"
    (Invalid_argument
       "Generators.random_sequential: stem_bias >= 1 needs at least \
        max_fanin latches")
    (fun () -> ignore (G.random_sequential ~seed:7 p));
  Alcotest.check_raises "no primary input"
    (Invalid_argument "Generators.random_sequential: npi must be at least 1")
    (fun () ->
      ignore (G.random_sequential ~seed:7 { G.default_profile with npi = 0 }));
  List.iter
    (fun p -> N.check (G.random_sequential ~seed:7 p))
    [ { p with nlatch = 3 }; { p with ngates = 0 };
      { p with stem_bias = 0.99 } ]

let () =
  Alcotest.run "circuits"
    [ ( "paper-example",
        [ Alcotest.test_case "original delay 3" `Quick
            test_paper_example_original_delay;
          Alcotest.test_case "retimed delay 2" `Quick
            test_paper_example_retimed_delay;
          Alcotest.test_case "resynthesized delay 1" `Quick
            test_paper_example_resynthesized_delay;
          Alcotest.test_case "substitution mode" `Quick
            test_paper_example_substitution_mode ] );
      ( "fsm",
        [ Alcotest.test_case "state bits" `Quick test_fsm_state_bits ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_fsm_complete; prop_fsm_network_matches_table ] );
      ( "kiss",
        [ Alcotest.test_case "parse" `Quick test_kiss_parse;
          Alcotest.test_case "roundtrip" `Quick test_kiss_roundtrip;
          Alcotest.test_case "to network" `Quick test_kiss_to_network;
          Alcotest.test_case "errors" `Quick test_kiss_errors;
          QCheck_alcotest.to_alcotest prop_kiss_fsm_roundtrip ] );
      ( "s27",
        [ Alcotest.test_case "shape" `Quick test_s27_shape;
          Alcotest.test_case "first cycle" `Quick test_s27_behaviour;
          Alcotest.test_case "input sensitivity" `Quick
            test_s27_output_depends_on_inputs ] );
      ( "suite",
        [ Alcotest.test_case "entries" `Quick test_suite_entries;
          Alcotest.test_case "builds" `Quick test_suite_builds;
          Alcotest.test_case "find" `Quick test_suite_find;
          Alcotest.test_case "deterministic" `Quick test_suite_deterministic ]
      );
      ( "generators",
        [ Alcotest.test_case "suite profiles" `Quick
            test_generator_suite_profiles;
          Alcotest.test_case "starved stem_bias profile raises" `Quick
            test_generator_rejects_starved_profile;
          QCheck_alcotest.to_alcotest prop_generator_matches_reference ]
      ) ]
