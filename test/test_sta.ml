(* Static timing analysis tests on hand-built circuits. *)

module N = Netlist.Network

let and_cover = Logic.Cover.of_strings 2 [ "11" ]
let inv_cover = Logic.Cover.of_strings 1 [ "0" ]

(* chain: in -> g1 -> g2 -> g3 -> out, plus a short side path *)
let chain_circuit () =
  let net = N.create ~name:"chain" () in
  let a = N.add_input net "a" and b = N.add_input net "b" in
  let g1 = N.add_logic net ~name:"g1" and_cover [ a; b ] in
  let g2 = N.add_logic net ~name:"g2" inv_cover [ g1 ] in
  let g3 = N.add_logic net ~name:"g3" and_cover [ g2; b ] in
  let side = N.add_logic net ~name:"side" inv_cover [ a ] in
  N.set_output net "o" g3;
  N.set_output net "s" side;
  net

let test_unit_delay_period () =
  let net = chain_circuit () in
  Alcotest.(check (float 1e-9)) "period 3" 3.0
    (Sta.clock_period net Sta.unit_delay)

let test_critical_path () =
  let net = chain_circuit () in
  let path = Sta.critical_path net Sta.unit_delay in
  Alcotest.(check (list string)) "path g1 g2 g3"
    [ "g1"; "g2"; "g3" ]
    (List.map (fun n -> n.N.name) path)

let test_sequential_period () =
  (* r -> g1 -> g2 -> r (latch data): period = 2 *)
  let net = N.create ~name:"seq" () in
  let a = N.add_input net "a" in
  let r = N.add_latch net ~name:"r" N.I0 a in
  let g1 = N.add_logic net ~name:"g1" and_cover [ r; a ] in
  let g2 = N.add_logic net ~name:"g2" inv_cover [ g1 ] in
  N.replace_fanin net r ~old_fanin:a ~new_fanin:g2;
  N.set_output net "o" r;
  Alcotest.(check (float 1e-9)) "period 2" 2.0
    (Sta.clock_period net Sta.unit_delay);
  let path = Sta.critical_path net Sta.unit_delay in
  Alcotest.(check (list string)) "path" [ "g1"; "g2" ]
    (List.map (fun n -> n.N.name) path)

let test_mapped_delay () =
  let net = chain_circuit () in
  let g1 = match N.find_by_name net "g1" with Some n -> n | None -> assert false in
  N.set_binding net g1
    (Some { N.gate_name = "and2"; gate_area = 3.0; gate_delay = 2.5 });
  let model = Sta.mapped_delay ~default:1.0 () in
  Alcotest.(check (float 1e-9)) "period with binding" 4.5
    (Sta.clock_period net model)

let test_slack () =
  let net = chain_circuit () in
  let slacks = Sta.slack net Sta.unit_delay ~required:3.0 in
  let g3 = match N.find_by_name net "g3" with Some n -> n | None -> assert false in
  let side = match N.find_by_name net "side" with Some n -> n | None -> assert false in
  Alcotest.(check (float 1e-9)) "critical slack 0" 0.0 slacks.(g3.N.id);
  Alcotest.(check (float 1e-9)) "side slack 2" 2.0 slacks.(side.N.id)

let test_no_logic () =
  let net = N.create () in
  let a = N.add_input net "a" in
  N.set_output net "o" a;
  Alcotest.(check (float 1e-9)) "period 0" 0.0
    (Sta.clock_period net Sta.unit_delay);
  Alcotest.(check (list string)) "no path" []
    (List.map (fun n -> n.N.name) (Sta.critical_path net Sta.unit_delay))

let prop_critical_path_matches_period =
  QCheck.Test.make ~count:50 ~name:"critical path length equals unit period"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net =
        Circuits.Generators.random_sequential ~seed
          { Circuits.Generators.default_profile with ngates = 25; nlatch = 4 }
      in
      let period = Sta.clock_period net Sta.unit_delay in
      let path = Sta.critical_path net Sta.unit_delay in
      abs_float (float_of_int (List.length path) -. period) < 1e-9)

let prop_path_is_connected =
  QCheck.Test.make ~count:50 ~name:"critical path nodes form a chain"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net =
        Circuits.Generators.random_sequential ~seed
          { Circuits.Generators.default_profile with ngates = 25; nlatch = 4 }
      in
      let path = Sta.critical_path net Sta.unit_delay in
      let rec chained = function
        | [] | [ _ ] -> true
        | a :: b :: rest ->
          Array.exists (fun f -> f = a.N.id) b.N.fanins && chained (b :: rest)
      in
      chained path)

(* --- period after network edits ------------------------------------------- *)

(* Every query re-analyses the network as it stands: a binding edit, a latch
   move and a restore followed by an edit must each show in the period. *)
let test_edit_binding () =
  let net = chain_circuit () in
  let model = Sta.mapped_delay ~default:1.0 () in
  Alcotest.(check (float 1e-9)) "initial period" 3.0
    (Sta.clock_period net model);
  let g1 = match N.find_by_name net "g1" with Some n -> n | None -> assert false in
  N.set_binding net g1
    (Some { N.gate_name = "and2"; gate_area = 3.0; gate_delay = 2.5 });
  Alcotest.(check (float 1e-9)) "period after binding edit" 4.5
    (Sta.clock_period net model);
  Alcotest.(check (list string)) "path after binding edit"
    [ "g1"; "g2"; "g3" ]
    (List.map (fun n -> n.N.name) (Sta.critical_path net model))

let test_edit_latch_move () =
  let net = N.create ~name:"m" () in
  let a = N.add_input net "a" in
  let r1 = N.add_latch net ~name:"r1" N.I0 a in
  let r2 = N.add_latch net ~name:"r2" N.I1 a in
  let g = N.add_logic net ~name:"g" and_cover [ r1; r2 ] in
  let h = N.add_logic net ~name:"h" inv_cover [ g ] in
  N.set_output net "o" h;
  Alcotest.(check (float 1e-9)) "before move" 2.0
    (Sta.clock_period net Sta.unit_delay);
  (match Retiming.Moves.forward_across_node net g with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "move refused");
  (* the latch now sits at g's output: worst endpoint is g's data input *)
  Alcotest.(check (float 1e-9)) "after move" 1.0
    (Sta.clock_period net Sta.unit_delay)

let test_edit_restore () =
  let net = chain_circuit () in
  let model = Sta.mapped_delay ~default:1.0 () in
  let snap = N.copy net in
  let g2 = match N.find_by_name net "g2" with Some n -> n | None -> assert false in
  N.set_binding net g2
    (Some { N.gate_name = "inv"; gate_area = 1.0; gate_delay = 5.0 });
  Alcotest.(check (float 1e-9)) "period after edit" 7.0
    (Sta.clock_period net model);
  N.restore net snap;
  Alcotest.(check (float 1e-9)) "period after restore" 3.0
    (Sta.clock_period net model);
  let g1 = match N.find_by_name net "g1" with Some n -> n | None -> assert false in
  N.set_binding net g1
    (Some { N.gate_name = "and2"; gate_area = 3.0; gate_delay = 2.5 });
  Alcotest.(check (float 1e-9)) "period after restore + edit" 4.5
    (Sta.clock_period net model)

let () =
  Alcotest.run "sta"
    [ ( "basic",
        [ Alcotest.test_case "unit period" `Quick test_unit_delay_period;
          Alcotest.test_case "critical path" `Quick test_critical_path;
          Alcotest.test_case "sequential period" `Quick test_sequential_period;
          Alcotest.test_case "mapped delay" `Quick test_mapped_delay;
          Alcotest.test_case "slack" `Quick test_slack;
          Alcotest.test_case "no logic" `Quick test_no_logic ] );
      ( "after edits",
        [ Alcotest.test_case "binding edit" `Quick test_edit_binding;
          Alcotest.test_case "latch move" `Quick test_edit_latch_move;
          Alcotest.test_case "restore then edit" `Quick test_edit_restore ] );
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [ prop_critical_path_matches_period;
            prop_path_is_connected ] ) ]
