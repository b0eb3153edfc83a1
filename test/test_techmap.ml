(* Technology library and mapper tests. *)

module N = Netlist.Network
module G = Techmap.Genlib

let test_patterns_match_covers () =
  List.iter
    (fun gate ->
      let from_pattern =
        G.pattern_cover gate.G.ninputs gate.G.pattern
      in
      if not (Logic.Cover.equivalent from_pattern gate.G.cover) then
        Alcotest.failf "gate %s: pattern and cover disagree" gate.G.gate_name)
    G.mcnc_lite.G.gates

let test_library_lookup () =
  let inv = G.find G.mcnc_lite "inv" in
  Alcotest.(check int) "inv arity" 1 inv.G.ninputs;
  Alcotest.check_raises "unknown gate"
    (Invalid_argument "Genlib.find: unknown gate foo") (fun () ->
      ignore (G.find G.mcnc_lite "foo"))

let subject_is_nand_inv net =
  let nand2 = Logic.Cover.of_strings 2 [ "0-"; "-0" ] in
  let inv = Logic.Cover.of_strings 1 [ "0" ] in
  List.for_all
    (fun n ->
      let c = N.cover_of n in
      Logic.Cover.equivalent c nand2 || Logic.Cover.equivalent c inv)
    (N.logic_nodes net)

let prop_subject_graph =
  QCheck.Test.make ~count:40 ~name:"subject graph is NAND2/INV and equivalent"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net =
        Circuits.Generators.random_sequential ~seed
          { Circuits.Generators.default_profile with
            ngates = 12;
            nlatch = 3;
            npi = 3 }
      in
      N.sweep net;
      let subject = Techmap.Mapper.subject_graph net in
      N.check subject;
      subject_is_nand_inv subject && Oracle.seq_equivalent net subject)

let prop_mapping_preserves_function =
  QCheck.Test.make ~count:40 ~name:"mapping preserves behaviour (delay obj)"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net =
        Circuits.Generators.random_sequential ~seed
          { Circuits.Generators.default_profile with
            ngates = 12;
            nlatch = 3;
            npi = 3 }
      in
      N.sweep net;
      let mapped = Techmap.Mapper.map net ~lib:G.mcnc_lite in
      N.check mapped;
      Oracle.seq_equivalent net mapped)

let prop_all_logic_bound =
  QCheck.Test.make ~count:30 ~name:"every mapped logic node carries a binding"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net =
        Circuits.Generators.random_sequential ~seed
          { Circuits.Generators.default_profile with ngates = 12; nlatch = 2 }
      in
      N.sweep net;
      let mapped = Techmap.Mapper.map net ~lib:G.mcnc_lite in
      List.for_all (fun n -> n.N.binding <> None) (N.logic_nodes mapped))

let test_map_simple_and () =
  let net = N.create () in
  let a = N.add_input net "a" and b = N.add_input net "b" in
  let g =
    N.add_logic net ~name:"g" (Logic.Cover.of_strings 2 [ "11" ]) [ a; b ]
  in
  N.set_output net "o" g;
  let mapped = Techmap.Mapper.map net ~lib:G.mcnc_lite in
  (* the fastest implementation of a single AND2 is the and2 cell *)
  let names =
    List.map
      (fun n -> match n.N.binding with Some b -> b.N.gate_name | None -> "?")
      (N.logic_nodes mapped)
  in
  Alcotest.(check (list string)) "single and2" [ "and2" ] names

let test_map_xor_uses_xor_cell () =
  let net = N.create () in
  let a = N.add_input net "a" and b = N.add_input net "b" in
  let g =
    N.add_logic net ~name:"g" (Logic.Cover.of_strings 2 [ "10"; "01" ]) [ a; b ]
  in
  N.set_output net "o" g;
  let mapped = Techmap.Mapper.map net ~lib:G.mcnc_lite in
  let names =
    List.map
      (fun n -> match n.N.binding with Some b -> b.N.gate_name | None -> "?")
      (N.logic_nodes mapped)
    |> List.sort compare
  in
  Alcotest.(check (list string)) "xor2 match" [ "xor2" ] names

(* --- genlib text format -------------------------------------------------------- *)

let sample_genlib =
  {|# a tiny library
GATE inv   1.0 O=!a;      PIN * INV 1 999 1.0 0.0 1.0 0.0
GATE nand2 2.0 O=!(a*b);  PIN * INV 1 999 1.0 0.0 1.0 0.0
GATE aoi21 3.0 O=!(a*b+c); PIN * INV 1 999 1.4 0.0 1.4 0.0
GATE xor2  5.0 O=a*!b+!a*b; PIN * INV 1 999 1.9 0.0 1.9 0.0
GATE and3  4.0 O=a*b*c;   PIN * INV 1 999 1.6 0.0 1.6 0.0
|}

let test_genlib_parse () =
  let lib = Techmap.Genlib_io.parse_string sample_genlib in
  Alcotest.(check int) "5 gates" 5 (List.length lib.G.gates);
  let aoi = G.find lib "aoi21" in
  Alcotest.(check int) "aoi arity" 3 aoi.G.ninputs;
  Alcotest.(check (float 1e-9)) "aoi delay" 1.4 aoi.G.delay;
  (* the parsed function must equal (ab + c)' *)
  let expected = Logic.Cover.of_strings 3 [ "0-0"; "-00" ] in
  Alcotest.(check bool) "aoi function" true
    (Logic.Cover.equivalent aoi.G.cover expected);
  (* the derived pattern is already checked internally; double-check here *)
  List.iter
    (fun g ->
      Alcotest.(check bool)
        (g.G.gate_name ^ " pattern matches cover")
        true
        (Logic.Cover.equivalent (G.pattern_cover g.G.ninputs g.G.pattern) g.G.cover))
    lib.G.gates

let test_genlib_roundtrip () =
  let lib = Techmap.Genlib_io.parse_string sample_genlib in
  let lib2 = Techmap.Genlib_io.parse_string (Techmap.Genlib_io.to_string lib) in
  List.iter2
    (fun a b ->
      Alcotest.(check string) "name" a.G.gate_name b.G.gate_name;
      Alcotest.(check (float 1e-9)) "area" a.G.area b.G.area;
      Alcotest.(check bool) "function" true
        (Logic.Cover.equivalent a.G.cover b.G.cover))
    lib.G.gates lib2.G.gates

let test_genlib_builtin_roundtrip () =
  let lib2 =
    Techmap.Genlib_io.parse_string (Techmap.Genlib_io.to_string G.mcnc_lite)
  in
  Alcotest.(check int) "gate count preserved" (List.length G.mcnc_lite.G.gates)
    (List.length lib2.G.gates)

let test_genlib_map_with_parsed_library () =
  (* Mapping with a parsed library must work end to end. *)
  let lib = Techmap.Genlib_io.parse_string sample_genlib in
  let net = N.create () in
  let a = N.add_input net "a" and b = N.add_input net "b" in
  let c = N.add_input net "c" in
  let g =
    N.add_logic net ~name:"g"
      (Logic.Cover.of_strings 3 [ "11-"; "--1" ])
      [ a; b; c ]
  in
  N.set_output net "o" g;
  let mapped = Techmap.Mapper.map net ~lib in
  N.check mapped;
  Alcotest.(check bool) "all bound" true
    (List.for_all (fun n -> n.N.binding <> None) (N.logic_nodes mapped));
  Alcotest.(check bool) "equivalent" true
    (Sim.Equiv.comb_equal_exhaustive net mapped)

let test_genlib_rejects_garbage () =
  Alcotest.(check bool) "no gates" true
    (try ignore (Techmap.Genlib_io.parse_string "nothing here"); false
     with Failure _ -> true);
  Alcotest.(check bool) "bad expression" true
    (try ignore (Techmap.Genlib_io.parse_string "GATE g 1.0 O=a+*b;"); false
     with Failure _ -> true)

let () =
  Alcotest.run "techmap"
    [ ( "library",
        [ Alcotest.test_case "patterns match covers" `Quick
            test_patterns_match_covers;
          Alcotest.test_case "lookup" `Quick test_library_lookup ] );
      ( "genlib-io",
        [ Alcotest.test_case "parse" `Quick test_genlib_parse;
          Alcotest.test_case "roundtrip" `Quick test_genlib_roundtrip;
          Alcotest.test_case "builtin roundtrip" `Quick
            test_genlib_builtin_roundtrip;
          Alcotest.test_case "map with parsed library" `Quick
            test_genlib_map_with_parsed_library;
          Alcotest.test_case "rejects garbage" `Quick
            test_genlib_rejects_garbage ] );
      ( "mapper",
        [ Alcotest.test_case "single and2" `Quick test_map_simple_and;
          Alcotest.test_case "xor cell" `Quick test_map_xor_uses_xor_cell ] );
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [ prop_subject_graph; prop_mapping_preserves_function;
            prop_all_logic_bound ] ) ]
