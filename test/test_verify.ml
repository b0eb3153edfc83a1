(* Netlist verifier tests: clean networks stay clean, each seeded corruption
   is caught by the intended rule id, and the revision audit catches a
   mutation that does not bump the network's revision. *)

module N = Netlist.Network

let and_cover = Logic.Cover.of_strings 2 [ "11" ]
let inv_cover = Logic.Cover.of_strings 1 [ "0" ]

(* in -> and -> latch -> inv -> out, plus a second latch *)
let seq_circuit () =
  let net = N.create ~name:"vt" () in
  let a = N.add_input net "a" and b = N.add_input net "b" in
  let g1 = N.add_logic net ~name:"g1" and_cover [ a; b ] in
  let r1 = N.add_latch net ~name:"r1" N.I0 g1 in
  let r2 = N.add_latch net ~name:"r2" N.I0 g1 in
  let h = N.add_logic net ~name:"h" and_cover [ r1; r2 ] in
  N.set_output net "o" h;
  (net, g1, r1, r2, h)

let has_rule id diags =
  List.exists (fun d -> d.Verify.rule_id = id) diags

let rule_ids diags =
  String.concat "," (List.map (fun d -> d.Verify.rule_id) diags)

let check_caught ?at ~corruption ~rule diags =
  Alcotest.(check bool)
    (Printf.sprintf "%s caught by %s (got: %s)" corruption rule
       (rule_ids diags))
    true (has_rule rule diags);
  (* the diagnostic must locate the corruption: the offending node id *)
  match at with
  | None -> ()
  | Some id ->
    Alcotest.(check bool)
      (Printf.sprintf "%s names node %d" rule id)
      true
      (List.exists
         (fun d -> d.Verify.rule_id = rule && List.mem id d.Verify.node_ids)
         diags)

let test_clean () =
  let net, _, r1, r2, _ = seq_circuit () in
  let diags = Verify.run ~equiv_classes:[ [ r1.N.id; r2.N.id ] ] net in
  Alcotest.(check int)
    (Printf.sprintf "no diagnostics (got: %s)" (rule_ids diags))
    0 (List.length diags)

let test_drop_fanout () =
  let net, g1, r1, _, _ = seq_circuit () in
  N.Unsafe.drop_fanout net ~id:g1.N.id ~consumer:r1.N.id;
  check_caught ~at:g1.N.id ~corruption:"drop_fanout"
    ~rule:"graph/edge-asymmetric" (Verify.run net)

let test_duplicate_name () =
  let net, _, _, r2, _ = seq_circuit () in
  N.set_name net r2 "r1";
  check_caught ~at:r2.N.id ~corruption:"set_name to a taken name"
    ~rule:"graph/name-duplicate" (Verify.run net)

let test_skew_cover () =
  let net, g1, _, _, _ = seq_circuit () in
  N.Unsafe.skew_cover net ~id:g1.N.id;
  check_caught ~at:g1.N.id ~corruption:"skew_cover" ~rule:"graph/cover-arity"
    (Verify.run net)

let test_redirect_fanin () =
  let net, _, _, _, h = seq_circuit () in
  N.Unsafe.redirect_fanin net ~id:h.N.id ~slot:0 ~target:9999;
  check_caught ~at:h.N.id ~corruption:"redirect_fanin"
    ~rule:"graph/fanin-dangling" (Verify.run net)

let test_comb_cycle () =
  (* g1 -> h -> g1 with no latch in between, through the rewiring API *)
  let net, g1, r1, _, h = seq_circuit () in
  N.set_function net h and_cover [ g1; r1 ];
  N.set_function net g1 and_cover [ h; h ];
  check_caught ~corruption:"rewire cycle" ~rule:"loop/combinational-cycle"
    (Verify.run net)

let test_bad_binding () =
  let net, g1, _, _, _ = seq_circuit () in
  N.set_binding net g1
    (Some { N.gate_name = "and2"; gate_area = -3.0; gate_delay = 1_000 });
  check_caught ~at:g1.N.id ~corruption:"negative area" ~rule:"binding/area"
    (Verify.run net)

let test_init_mismatch () =
  let net, _, r1, r2, _ = seq_circuit () in
  N.set_latch_init net r2 N.I1;
  check_caught ~corruption:"class init skew" ~rule:"retiming/init-mismatch"
    (Verify.run ~equiv_classes:[ [ r1.N.id; r2.N.id ] ] net)

let test_cone_mismatch () =
  let net, _, r1, r2, _ = seq_circuit () in
  (* retarget r2's data input onto a structurally different cone *)
  let a = match N.find_by_name net "a" with Some n -> n | None -> assert false in
  let inv = N.add_logic net ~name:"inv_a" inv_cover [ a ] in
  let g1 = match N.find_by_name net "g1" with Some n -> n | None -> assert false in
  N.replace_fanin net r2 ~old_fanin:g1 ~new_fanin:inv;
  check_caught ~corruption:"cone divergence" ~rule:"retiming/cone-mismatch"
    (Verify.run ~equiv_classes:[ [ r1.N.id; r2.N.id ] ] net)

let test_class_not_latch () =
  let net, g1, r1, _, _ = seq_circuit () in
  check_caught ~corruption:"logic node in class" ~rule:"retiming/class-not-latch"
    (Verify.run ~equiv_classes:[ [ r1.N.id; g1.N.id ] ] net)

let test_audit_catches_unjournaled () =
  let net, _, r1, _, _ = seq_circuit () in
  match
    Verify.pass [ Verify.hook ~label:"vt" ] ~cat:"test" "rogue"
      (Verify.In_place net) (fun () ->
        N.Unsafe.set_latch_init_unjournaled net ~id:r1.N.id N.I1)
  with
  | () -> Alcotest.fail "unjournaled mutation not detected"
  | exception Verify.Verification_failed msg ->
    Alcotest.(check bool)
      (Printf.sprintf "audit names journal/unjournaled (got: %s)" msg)
      true
      (let has sub =
         let n = String.length sub and m = String.length msg in
         let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
         go 0
       in
       has "journal/unjournaled")

let test_audit_clean_pass () =
  (* an edit through the public API bumps the revision and passes the audit *)
  let net, _, r1, _, _ = seq_circuit () in
  Verify.pass [ Verify.hook ~label:"vt" ] ~cat:"test" "legal"
    (Verify.In_place net) (fun () -> N.set_latch_init net r1 N.I1);
  Alcotest.(check pass) "journaled edit audited clean" () ()

let test_render_json () =
  let net, g1, r1, _, _ = seq_circuit () in
  N.Unsafe.drop_fanout net ~id:g1.N.id ~consumer:r1.N.id;
  let json = Obs.Json.layout (Verify.to_json (Verify.run net)) in
  Alcotest.(check bool) "json mentions rule id" true
    (let has sub =
       let n = String.length sub and m = String.length json in
       let rec go i = i + n <= m && (String.sub json i n = sub || go (i + 1)) in
       go 0
     in
     has "\"rule_id\"" && has "graph/edge-asymmetric")

(* --- properties ------------------------------------------------------------ *)

let random_cover st nvars =
  let cube () =
    String.init nvars (fun _ ->
        match Random.State.int st 3 with 0 -> '0' | 1 -> '1' | _ -> '-')
  in
  Logic.Cover.of_strings nvars
    (List.init (1 + Random.State.int st 3) (fun _ -> cube ()))

(* One random edit through the public mutation API; every case preserves the
   network contract (in particular acyclicity: rewiring targets only
   non-logic sources, fresh nodes have no fanouts yet).  A rollback case
   applies a nested edit and reverts it with [N.restore], as min-area
   retiming does for a rejected move. *)
let rec apply_random_edit st net fresh_po =
  let live = N.all_nodes net in
  let logic = List.filter N.is_logic live in
  let latches = List.filter N.is_latch live in
  let pick lst = List.nth lst (Random.State.int st (List.length lst)) in
  match Random.State.int st 10 with
  | 0 ->
    (match logic with
     | [] -> ()
     | _ ->
       let v = pick logic in
       N.set_cover net v (random_cover st (Array.length v.N.fanins)))
  | 1 ->
    (match logic with
     | [] -> ()
     | _ ->
       N.set_binding net (pick logic)
         (Some { N.gate_name = "g"; gate_area = 1.0; gate_delay = 500 }))
  | 2 ->
    (match List.filter (Retiming.Moves.is_forward_retimable net) logic with
     | [] -> ()
     | cands -> ignore (Retiming.Moves.forward_across_node net (pick cands)))
  | 3 ->
    (match List.filter (Retiming.Moves.is_backward_retimable net) logic with
     | [] -> ()
     | cands -> ignore (Retiming.Moves.backward_across_node net (pick cands)))
  | 4 ->
    (match latches with
     | [] -> ()
     | _ -> ignore (Retiming.Moves.split_stem net (pick latches)))
  | 5 ->
    (match latches with
     | [] -> ()
     | _ -> N.set_latch_init net (pick latches) (pick [ N.I0; N.I1; N.Ix ]))
  | 6 ->
    let k = 1 + Random.State.int st 3 in
    let fanins = List.init k (fun _ -> pick live) in
    let g = N.add_logic net (random_cover st k) fanins in
    incr fresh_po;
    N.set_output net (Printf.sprintf "vpo%d" !fresh_po) g
  | 7 ->
    (match logic, List.filter (fun n -> not (N.is_logic n)) live with
     | [], _ | _, [] -> ()
     | _, sources ->
       let v = pick logic in
       let k = 1 + Random.State.int st 3 in
       N.set_function net v (random_cover st k)
         (List.init k (fun _ -> pick sources)))
  | 8 ->
    let snapshot = N.copy net in
    apply_random_edit st net fresh_po;
    N.restore net snapshot
  | _ -> N.sweep net

(* Each edit runs as one in-place pass under the verifier hook: the static
   rules and the revision audit both see it. *)
let prop_legal_edits_stay_clean =
  QCheck.Test.make ~count:40 ~name:"random legal edit sequences verify clean"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let net =
        Circuits.Generators.random_sequential ~seed
          { Circuits.Generators.default_profile with
            ngates = 25; nlatch = 4; npi = 4; npo = 3 }
      in
      let fresh_po = ref 0 in
      let clean = Verify.errors (Verify.run net) = [] in
      for step = 1 to 25 do
        try
          Verify.pass
            [ Verify.hook ~label:(Printf.sprintf "seed %d" seed) ]
            ~cat:"test" (Printf.sprintf "edit %d" step) (Verify.In_place net)
            (fun () -> apply_random_edit st net fresh_po)
        with Verify.Verification_failed msg -> QCheck.Test.fail_report msg
      done;
      clean)

let prop_seeded_corruption_caught =
  QCheck.Test.make ~count:40 ~name:"seeded corruption caught by matching rule"
    QCheck.(pair (int_range 0 10_000) (int_range 0 2))
    (fun (seed, kind) ->
      let net =
        Circuits.Generators.random_sequential ~seed
          { Circuits.Generators.default_profile with
            ngates = 25; nlatch = 4; npi = 4; npo = 3 }
      in
      let logic = List.filter N.is_logic (N.all_nodes net) in
      let with_fanout = List.filter (fun n -> n.N.fanouts <> []) logic in
      let st = Random.State.make [| seed; kind |] in
      let pick lst = List.nth lst (Random.State.int st (List.length lst)) in
      match kind with
      | 0 ->
        (match with_fanout with
         | [] -> QCheck.assume_fail ()
         | _ ->
           let v = pick with_fanout in
           N.Unsafe.drop_fanout net ~id:v.N.id ~consumer:(List.hd v.N.fanouts);
           has_rule "graph/edge-asymmetric" (Verify.run net))
      | 1 ->
        (match logic with
         | [] -> QCheck.assume_fail ()
         | _ ->
           N.Unsafe.skew_cover net ~id:(pick logic).N.id;
           has_rule "graph/cover-arity" (Verify.run net))
      | _ ->
        (match List.filter (fun n -> Array.length n.N.fanins > 0) logic with
         | [] -> QCheck.assume_fail ()
         | cands ->
           let v = pick cands in
           N.Unsafe.redirect_fanin net ~id:v.N.id ~slot:0 ~target:(-7);
           has_rule "graph/fanin-dangling" (Verify.run net)))

let () =
  Alcotest.run "verify"
    [ ( "rules",
        [ Alcotest.test_case "clean network" `Quick test_clean;
          Alcotest.test_case "drop fanout" `Quick test_drop_fanout;
          Alcotest.test_case "duplicate name" `Quick test_duplicate_name;
          Alcotest.test_case "skew cover" `Quick test_skew_cover;
          Alcotest.test_case "redirect fanin" `Quick test_redirect_fanin;
          Alcotest.test_case "combinational cycle" `Quick test_comb_cycle;
          Alcotest.test_case "bad binding" `Quick test_bad_binding;
          Alcotest.test_case "init mismatch" `Quick test_init_mismatch;
          Alcotest.test_case "cone mismatch" `Quick test_cone_mismatch;
          Alcotest.test_case "class not latch" `Quick test_class_not_latch;
          Alcotest.test_case "render json" `Quick test_render_json ] );
      ( "audit",
        [ Alcotest.test_case "unjournaled caught" `Quick
            test_audit_catches_unjournaled;
          Alcotest.test_case "journaled clean" `Quick test_audit_clean_pass ] );
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [ prop_legal_edits_stay_clean; prop_seeded_corruption_caught ] ) ]
