(* Simulation and equivalence-checking tests. *)

module N = Netlist.Network
module S = Sim.Simulate

let xor_cover = Logic.Cover.of_strings 2 [ "10"; "01" ]
let and_cover = Logic.Cover.of_strings 2 [ "11" ]
let or_cover = Logic.Cover.of_strings 2 [ "1-"; "-1" ]

(* Toggle FF: r' = r xor en, out = r *)
let toggle () =
  let net = N.create ~name:"toggle" () in
  let en = N.add_input net "en" in
  let r = N.add_latch net ~name:"r" N.I0 en in
  let next = N.add_logic net ~name:"next" xor_cover [ en; r ] in
  N.replace_fanin net r ~old_fanin:en ~new_fanin:next;
  N.set_output net "out" r;
  net

let test_step_sequence () =
  let net = toggle () in
  let state = S.binary_initial_state net in
  let always_on _ = true in
  let s1, o1 = S.step net ~pi:always_on ~state in
  Alcotest.(check bool) "out cycle 1 = init 0" false (List.assoc "out" o1);
  let s2, o2 = S.step net ~pi:always_on ~state:s1 in
  Alcotest.(check bool) "out cycle 2 = 1" true (List.assoc "out" o2);
  let _, o3 = S.step net ~pi:always_on ~state:s2 in
  Alcotest.(check bool) "out cycle 3 = 0" false (List.assoc "out" o3)

let test_run () =
  let net = toggle () in
  let vectors = List.init 4 (fun _ _name -> true) in
  let _, outs = S.run net (S.binary_initial_state net) vectors in
  let bits = List.map (fun o -> List.assoc "out" o) outs in
  Alcotest.(check (list bool)) "toggling" [ false; true; false; true ] bits

(* --- 3-valued ----------------------------------------------------------------- *)

(* The simulator is two-valued; the one three-valued evaluation left is the
   initial value a forward retiming move computes, by simulating the gate
   once on its fanin registers' initial values.  [moved_init] builds
   [cover(r1, r2)] over two registers with the given inits and returns the
   init of the register moved to the gate's output. *)
let moved_init cover init1 init2 =
  let net = N.create () in
  let a = N.add_input net "a" and b = N.add_input net "b" in
  let r1 = N.add_latch net ~name:"r1" init1 a in
  let r2 = N.add_latch net ~name:"r2" init2 b in
  let g = N.add_logic net ~name:"g" cover [ r1; r2 ] in
  N.set_output net "o" g;
  match Retiming.Moves.forward_across_node net g with
  | Ok latch -> N.latch_init latch
  | Error e -> Alcotest.fail (Retiming.Moves.error_message e)

let test_three_valued_x_propagation () =
  (* XOR has no controlling value: any unknown input makes it unknown. *)
  Alcotest.(check bool) "xor(1, x) is x" true
    (moved_init xor_cover N.I1 N.Ix = N.Ix);
  Alcotest.(check bool) "xor(x, 0) is x" true
    (moved_init xor_cover N.Ix N.I0 = N.Ix);
  Alcotest.(check bool) "and(1, x) is x" true
    (moved_init and_cover N.I1 N.Ix = N.Ix);
  Alcotest.(check bool) "xor(1, 0) is 1" true
    (moved_init xor_cover N.I1 N.I0 = N.I1)

let test_three_valued_controlling () =
  (* A controlling input decides the gate even when the other is unknown. *)
  Alcotest.(check bool) "0 dominates X in AND" true
    (moved_init and_cover N.Ix N.I0 = N.I0);
  Alcotest.(check bool) "1 dominates X in OR" true
    (moved_init or_cover N.Ix N.I1 = N.I1);
  Alcotest.(check bool) "or(0, x) is x" true
    (moved_init or_cover N.I0 N.Ix = N.Ix)

(* --- equivalence ------------------------------------------------------------ *)

let test_seq_equivalent_positive () =
  let a = toggle () and b = toggle () in
  Alcotest.(check bool) "identical copies equal" true (Oracle.seq_equivalent a b)

let test_seq_equivalent_negative () =
  let a = toggle () in
  let b = toggle () in
  (* flip b's initial state: observable in the first cycle *)
  let r = match N.find_by_name b "r" with Some n -> n | None -> assert false in
  N.set_latch_init b r N.I1;
  Alcotest.(check bool) "different init detected" false
    (Oracle.seq_equivalent a b)

let test_seq_equivalent_retimed_style () =
  (* A circuit and a version with a duplicated (equivalent) register must be
     sequentially equivalent: this is exactly the paper's fanout-stem
     transformation. *)
  let a = toggle () in
  let b = N.create ~name:"toggle" () in
  let en = N.add_input b "en" in
  let r1 = N.add_latch b ~name:"r" N.I0 en in
  let r2 = N.add_latch b ~name:"r2" N.I0 en in
  (* next value computed from r1, loaded into both registers *)
  let next = N.add_logic b ~name:"next" xor_cover [ en; r1 ] in
  N.replace_fanin b r1 ~old_fanin:en ~new_fanin:next;
  N.replace_fanin b r2 ~old_fanin:en ~new_fanin:next;
  (* output reads the duplicate *)
  N.set_output b "out" r2;
  Alcotest.(check bool) "register duplication is sound" true
    (Oracle.seq_equivalent a b)

let test_seq_equal_random_positive () =
  let a = toggle () and b = toggle () in
  Alcotest.(check bool) "random cosim equal" true
    (Sim.Equiv.seq_equal_random ~seed:3 a b = None)

let test_seq_equal_random_negative () =
  let a = toggle () in
  let b = toggle () in
  let next = match N.find_by_name b "next" with Some n -> n | None -> assert false in
  N.set_cover b next (Logic.Cover.of_strings 2 [ "1-" ]);
  Alcotest.(check bool) "behaviour change detected" true
    (Sim.Equiv.seq_equal_random ~seed:3 a b <> None)

(* [Eqcheck.comb_check] with a BDD budget too small for any cone falls back
   to its Tseitin miter on [Sat_lite] every time.  That path must prove
   exactly the pairs the exhaustive check finds equal. *)
let test_comb_check_sat_agrees () =
  let options = { Eqcheck.default_options with max_bdd_nodes = 2 } in
  let fallbacks = Obs.Metrics.counter "eqcheck.cap.bdd_nodes" in
  Obs.Metrics.enable ();
  let before = Obs.Metrics.counter_value fallbacks in
  let ok = ref true in
  for seed = 0 to 30 do
    let net =
      Circuits.Generators.random_sequential ~seed
        { Circuits.Generators.default_profile with
          ngates = 10;
          nlatch = 2;
          npi = 3 }
    in
    N.sweep net;
    let mutated = N.copy net in
    (* mutate one random node in half the cases *)
    if seed mod 2 = 0 then begin
      match N.logic_nodes mutated with
      | [] -> ()
      | n :: _ ->
        let c = N.cover_of n in
        let flipped = Logic.Cover.complement c in
        N.set_cover mutated n flipped
    end;
    let expected = Sim.Equiv.comb_equal_exhaustive net mutated in
    let got = Eqcheck.comb_check ~options net mutated = Eqcheck.Proved in
    if expected <> got then ok := false
  done;
  let taken = Obs.Metrics.counter_value fallbacks - before in
  Obs.Metrics.disable ();
  Alcotest.(check int) "every check fell back to SAT" 31 taken;
  Alcotest.(check bool) "sat CEC agrees with exhaustive" true !ok

let prop_bdd_equals_random_verdict =
  QCheck.Test.make ~count:20 ~name:"bdd and random checks agree on copies"
    QCheck.(int_range 0 5_000)
    (fun seed ->
      let net =
        Circuits.Generators.random_sequential ~seed
          { Circuits.Generators.default_profile with
            ngates = 8;
            nlatch = 3;
            npi = 2 }
      in
      N.sweep net;
      let dup = N.copy net in
      Oracle.seq_equivalent net dup
      && Sim.Equiv.seq_equal_random ~seed ~vectors:8 ~length:32 net dup = None)

(* The word-parallel sampler against the run-by-run oracle, on random
   netlists and their single-node-complement mutants: [vectors] falls below,
   at and across one word of lanes. *)
let prop_seq_equal_random_matches_oracle =
  QCheck.Test.make ~count:150 ~name:"lane sampler matches the scalar oracle"
    QCheck.(quad (int_range 0 5_000) (int_range 0 12) (int_range 1 130)
              (int_range 1 64))
    (fun (seed, mutant, vectors, length) ->
      let net =
        Circuits.Generators.random_sequential ~seed
          { Circuits.Generators.default_profile with
            ngates = 10;
            nlatch = 3;
            npi = 3 }
      in
      N.sweep net;
      let other = N.copy net in
      (match N.logic_nodes other with
       | [] -> ()
       | nodes ->
         (* [mutant] past the node count keeps the copy unmutated *)
         (match List.nth_opt nodes mutant with
          | Some n -> N.set_cover other n (Logic.Cover.complement (N.cover_of n))
          | None -> ()));
      Sim.Equiv.seq_equal_random ~vectors ~length ~seed net other
      = Oracle.seq_equal_random ~vectors ~length ~seed net other)

(* Lane 0 of the compiled evaluator against [Network.eval_comb]. *)
let prop_eval_all_matches_eval_comb =
  QCheck.Test.make ~count:100 ~name:"eval_all matches Network.eval_comb"
    QCheck.(pair (int_range 0 5_000) (int_range 0 1_000_000))
    (fun (seed, bits) ->
      let net =
        Circuits.Generators.random_sequential ~seed
          { Circuits.Generators.default_profile with
            ngates = 12;
            nlatch = 3;
            npi = 3 }
      in
      let leaves = N.inputs net @ N.latches net in
      let bit = Hashtbl.create 8 in
      List.iteri (fun i n -> Hashtbl.replace bit n.N.id ((bits lsr i) land 1 = 1)) leaves;
      let pi name =
        match N.find_by_name net name with
        | Some n -> Hashtbl.find bit n.N.id
        | None -> false
      in
      let state = List.map (fun l -> (l.N.id, Hashtbl.find bit l.N.id)) (N.latches net) in
      let values = S.eval_all net ~pi ~state in
      List.for_all
        (fun n -> values.(n.N.id) = N.eval_comb net (Hashtbl.find bit) n.N.id)
        (N.logic_nodes net))

(* A register that loads the AND of six inputs against one that loads 0:
   a run diverges only after all six inputs were 1 in one cycle, so the first
   diverging run lands anywhere in the first few words of lanes.  Sweeping
   [vectors] makes every such run the last lane of its batch once. *)
let test_seq_equal_random_rare_divergence () =
  let build cover =
    let net = N.create ~name:"and6" () in
    let ins = List.init 6 (fun i -> N.add_input net (Printf.sprintf "i%d" i)) in
    let g = N.add_logic net ~name:"g" cover ins in
    let r = N.add_latch net ~name:"r" N.I0 g in
    N.set_output net "out" r;
    net
  in
  let a = build (Logic.Cover.of_strings 6 [ "111111" ]) in
  let b = build (Logic.Cover.empty 6) in
  let refuted = ref 0 in
  for seed = 0 to 5 do
    List.iter
      (fun length ->
        for vectors = 1 to 130 do
          let expected = Oracle.seq_equal_random ~vectors ~length ~seed a b in
          if expected <> None then incr refuted;
          if Sim.Equiv.seq_equal_random ~vectors ~length ~seed a b <> expected
          then
            Alcotest.failf "seed %d, length %d, vectors %d: sampler disagrees"
              seed length vectors
        done)
      [ 2; 3 ]
  done;
  Alcotest.(check bool) "some runs diverge, some do not" true
    (!refuted > 0 && !refuted < 6 * 2 * 130)

let test_seq_equal_random_output_names () =
  let a = toggle () in
  let b = toggle () in
  let r = match N.find_by_name b "r" with Some n -> n | None -> assert false in
  N.set_output b "out2" r;
  let expected = Oracle.seq_equal_random ~seed:9 ~vectors:70 a b in
  Alcotest.(check int) "diverges at cycle 1 of run 0" 1
    (match expected with Some trace -> List.length trace | None -> 0);
  Alcotest.(check bool) "lane sampler agrees" true
    (Sim.Equiv.seq_equal_random ~seed:9 ~vectors:70 a b = expected)

let () =
  Alcotest.run "sim"
    [ ( "simulate",
        [ Alcotest.test_case "step sequence" `Quick test_step_sequence;
          Alcotest.test_case "run" `Quick test_run;
          Alcotest.test_case "x propagation" `Quick
            test_three_valued_x_propagation;
          Alcotest.test_case "controlling value" `Quick
            test_three_valued_controlling ] );
      ( "equiv",
        [ Alcotest.test_case "bdd positive" `Quick test_seq_equivalent_positive;
          Alcotest.test_case "bdd negative" `Quick test_seq_equivalent_negative;
          Alcotest.test_case "register duplication" `Quick
            test_seq_equivalent_retimed_style;
          Alcotest.test_case "random positive" `Quick
            test_seq_equal_random_positive;
          Alcotest.test_case "random negative" `Quick
            test_seq_equal_random_negative;
          Alcotest.test_case "random rare divergence" `Quick
            test_seq_equal_random_rare_divergence;
          Alcotest.test_case "random output names differ" `Quick
            test_seq_equal_random_output_names;
          Alcotest.test_case "sat cec agreement" `Slow
            test_comb_check_sat_agrees ] );
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [ prop_bdd_equals_random_verdict;
            prop_seq_equal_random_matches_oracle;
            prop_eval_all_matches_eval_comb ]
      ) ]
