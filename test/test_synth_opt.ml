(* Tests for the script.delay stand-in: node simplification, elimination
   (collapse), and the full pipeline. *)

module N = Netlist.Network

let and_cover = Logic.Cover.of_strings 2 [ "11" ]
let or_cover = Logic.Cover.of_strings 2 [ "1-"; "-1" ]

let profile =
  { Circuits.Generators.default_profile with ngates = 12; nlatch = 3; npi = 3 }

let test_simplify_nodes () =
  let net = N.create () in
  let a = N.add_input net "a" and b = N.add_input net "b" in
  (* ab + ab' + a'b = a + b: 6 literals down to 2 *)
  let g =
    N.add_logic net ~name:"g"
      (Logic.Cover.of_strings 2 [ "11"; "10"; "01" ])
      [ a; b ]
  in
  N.set_output net "o" g;
  let improved = Synth_opt.Script.simplify_nodes net in
  Alcotest.(check bool) "improved" true (improved >= 1);
  Alcotest.(check bool) "now or" true
    (Logic.Cover.equivalent (N.cover_of g) or_cover)

let test_collapse_into () =
  (* g = a AND b; h = g OR c.  Collapsing g into h gives h = ab + c. *)
  let net = N.create () in
  let a = N.add_input net "a" and b = N.add_input net "b"
  and c = N.add_input net "c" in
  let g = N.add_logic net ~name:"g" and_cover [ a; b ] in
  let h = N.add_logic net ~name:"h" or_cover [ g; c ] in
  N.set_output net "o" h;
  Synth_opt.Script.collapse_into net ~producer:g ~consumer:h;
  N.check net;
  Alcotest.(check int) "3 fanins" 3 (Array.length h.N.fanins);
  let expected = Logic.Cover.of_strings 3 [ "11-"; "--1" ] in
  (* fanin order: b, a? order depends on construction; compare by function *)
  let tt_of cover = Logic.Truthtab.of_cover cover in
  let perms_match =
    (* evaluate against eval_comb semantics instead of guessing order *)
    let eval av bv cv =
      N.eval_comb net
        (fun id ->
          let n = N.node net id in
          match n.N.name with
          | "a" -> av
          | "b" -> bv
          | "c" -> cv
          | _ -> assert false)
        h.N.id
    in
    eval true true false && eval false false true
    && (not (eval true false false))
    && not (eval false true false)
  in
  ignore (tt_of expected);
  Alcotest.(check bool) "function correct" true perms_match

let test_collapse_negative_phase () =
  (* h = NOT g where g = a AND b: collapse must complement correctly *)
  let net = N.create () in
  let a = N.add_input net "a" and b = N.add_input net "b" in
  let g = N.add_logic net ~name:"g" and_cover [ a; b ] in
  let h = N.add_logic net ~name:"h" (Logic.Cover.of_strings 1 [ "0" ]) [ g ] in
  N.set_output net "o" h;
  Synth_opt.Script.collapse_into net ~producer:g ~consumer:h;
  let eval av bv =
    N.eval_comb net
      (fun id ->
        let n = N.node net id in
        if n.N.name = "a" then av else bv)
      h.N.id
  in
  Alcotest.(check bool) "nand 11" false (eval true true);
  Alcotest.(check bool) "nand 01" true (eval false true)

let test_eliminate () =
  (* A chain of one-fanout small nodes collapses. *)
  let net = N.create () in
  let a = N.add_input net "a" and b = N.add_input net "b"
  and c = N.add_input net "c" in
  let g1 = N.add_logic net ~name:"g1" and_cover [ a; b ] in
  let g2 = N.add_logic net ~name:"g2" or_cover [ g1; c ] in
  N.set_output net "o" g2;
  let eliminated = Synth_opt.Script.eliminate net in
  Alcotest.(check bool) "eliminated g1" true (eliminated >= 1);
  N.check net

let prop_collapse_sound =
  QCheck.Test.make ~count:50 ~name:"eliminate preserves behaviour"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net = Circuits.Generators.random_sequential ~seed profile in
      N.sweep net;
      let before = N.copy net in
      ignore (Synth_opt.Script.eliminate net);
      N.check net;
      Oracle.seq_equivalent before net)

let prop_simplify_sound =
  QCheck.Test.make ~count:50 ~name:"simplify_nodes preserves behaviour"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net = Circuits.Generators.random_sequential ~seed profile in
      N.sweep net;
      let before = N.copy net in
      ignore (Synth_opt.Script.simplify_nodes net);
      Oracle.seq_equivalent before net)

let prop_script_delay_sound =
  QCheck.Test.make ~count:30 ~name:"script_delay output is mapped + equivalent"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net = Circuits.Generators.random_sequential ~seed profile in
      N.sweep net;
      let mapped = Synth_opt.Script.script_delay net ~lib:Techmap.Genlib.mcnc_lite in
      N.check mapped;
      List.for_all (fun n -> n.N.binding <> None) (N.logic_nodes mapped)
      && Oracle.seq_equivalent net mapped)

let prop_script_delay_no_worse_depth =
  QCheck.Test.make ~count:30
    ~name:"script_delay unit-depth no worse than naive mapping"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net = Circuits.Generators.random_sequential ~seed profile in
      N.sweep net;
      let naive =
        Techmap.Mapper.map net ~lib:Techmap.Genlib.mcnc_lite
      in
      let optimized =
        Synth_opt.Script.script_delay net ~lib:Techmap.Genlib.mcnc_lite
      in
      let model = Sta.mapped_delay in
      Sta.clock_period optimized model
      <= (Sta.clock_period naive model *. 1.5) +. 1e-9)

(* --- structural hashing --------------------------------------------------------- *)

let test_strash_merges_twins () =
  let net = N.create () in
  let a = N.add_input net "a" and b = N.add_input net "b" in
  let g1 = N.add_logic net ~name:"g1" and_cover [ a; b ] in
  let g2 = N.add_logic net ~name:"g2" and_cover [ a; b ] in
  let h = N.add_logic net ~name:"h" or_cover [ g1; g2 ] in
  N.set_output net "o" h;
  let merged = Netlist.Strash.run net in
  Alcotest.(check int) "one merge" 1 merged;
  N.check net

let prop_strash_sound =
  QCheck.Test.make ~count:40 ~name:"structural hashing preserves behaviour"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net = Circuits.Generators.random_sequential ~seed profile in
      N.sweep net;
      let before = N.copy net in
      ignore (Netlist.Strash.run net);
      N.check net;
      Oracle.seq_equivalent before net)

let () =
  Alcotest.run "synth_opt"
    [ ( "basic",
        [ Alcotest.test_case "simplify nodes" `Quick test_simplify_nodes;
          Alcotest.test_case "collapse into" `Quick test_collapse_into;
          Alcotest.test_case "collapse negative phase" `Quick
            test_collapse_negative_phase;
          Alcotest.test_case "eliminate" `Quick test_eliminate;
          Alcotest.test_case "strash merges twins" `Quick
            test_strash_merges_twins ] );
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [ prop_collapse_sound; prop_simplify_sound; prop_script_delay_sound;
            prop_script_delay_no_worse_depth; prop_strash_sound ] ) ]
