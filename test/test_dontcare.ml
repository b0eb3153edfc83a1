(* Don't-care machinery tests: equivalence classes, cone collapsing,
   reachability-based external DCs. *)

module N = Netlist.Network
module C = Dontcare.Classes

let and_cover = Logic.Cover.of_strings 2 [ "11" ]
let xor_cover = Logic.Cover.of_strings 2 [ "10"; "01" ]
let inv_cover = Logic.Cover.of_strings 1 [ "0" ]

let fresh_latches net n =
  let a = N.add_input net "a" in
  List.init n (fun i -> N.add_latch net ~name:(Printf.sprintf "l%d" i) N.I0 a)

let test_classes_basic () =
  let net = N.create () in
  match fresh_latches net 4 with
  | [ l0; l1; l2; l3 ] ->
    let t = C.create () in
    C.declare_equal t l0 l1;
    C.declare_equal t l2 l3;
    Alcotest.(check bool) "0~1" true (C.are_equal t l0 l1);
    Alcotest.(check bool) "0!~2" false (C.are_equal t l0 l2);
    Alcotest.(check bool) "self" true (C.are_equal t l0 l0);
    Alcotest.(check int) "two classes" 2 (List.length (C.classes t));
    C.declare_equal t l1 l2;
    Alcotest.(check int) "merged" 1 (List.length (C.classes t));
    Alcotest.(check bool) "0~3 transitively" true (C.are_equal t l0 l3)
  | _ -> assert false

let test_dc_cover () =
  let net = N.create () in
  match fresh_latches net 3 with
  | [ l0; l1; l2 ] ->
    let t = C.create () in
    C.declare_class t [ l0; l1 ];
    ignore l2;
    (* variables: l0 -> 0, l1 -> 1, l2 -> 2 *)
    let var_of_latch id =
      if id = l0.N.id then Some 0
      else if id = l1.N.id then Some 1
      else if id = l2.N.id then Some 2
      else None
    in
    let dc = C.dc_cover t ~nvars:3 ~var_of_latch in
    let expected = Logic.Cover.of_strings 3 [ "10-"; "01-" ] in
    Alcotest.(check bool) "xor shape" true (Logic.Cover.equivalent dc expected)
  | _ -> assert false

let test_dc_cover_partial_leaves () =
  let net = N.create () in
  match fresh_latches net 2 with
  | [ l0; l1 ] ->
    let t = C.create () in
    C.declare_class t [ l0; l1 ];
    (* only l0 appears in the cone: no usable DC *)
    let var_of_latch id = if id = l0.N.id then Some 0 else None in
    let dc = C.dc_cover t ~nvars:1 ~var_of_latch in
    Alcotest.(check bool) "empty" true (Logic.Cover.is_empty dc)
  | _ -> assert false

let test_drop_dead () =
  let net = N.create () in
  match fresh_latches net 3 with
  | [ l0; l1; l2 ] ->
    let t = C.create () in
    C.declare_class t [ l0; l1; l2 ];
    C.drop_dead t ~alive:(fun id -> id <> l1.N.id);
    Alcotest.(check bool) "survivors equal" true (C.are_equal t l0 l2);
    Alcotest.(check int) "one class" 1 (List.length (C.classes t))
  | _ -> assert false

(* --- cone collapse ------------------------------------------------------------ *)

let test_collapse_simple () =
  (* root = (a AND r) XOR b, collapsed over leaves {a, r, b} *)
  let net = N.create () in
  let a = N.add_input net "a" and b = N.add_input net "b" in
  let r = N.add_latch net ~name:"r" N.I0 a in
  let g1 = N.add_logic net ~name:"g1" and_cover [ a; r ] in
  let g2 = N.add_logic net ~name:"g2" xor_cover [ g1; b ] in
  N.set_output net "o" g2;
  let collapsed = Dontcare.Cone.collapse net g2 in
  Alcotest.(check int) "3 leaves" 3 (Array.length collapsed.Dontcare.Cone.leaves);
  (* check semantics against direct evaluation *)
  let leaves = collapsed.Dontcare.Cone.leaves in
  let ok = ref true in
  for bits = 0 to 7 do
    let value_of_leaf id =
      let idx = ref (-1) in
      Array.iteri (fun i l -> if l.N.id = id then idx := i) leaves;
      bits land (1 lsl !idx) <> 0
    in
    let direct = N.eval_comb net value_of_leaf g2.N.id in
    let point = Array.init 3 (fun i -> bits land (1 lsl i) <> 0) in
    let via_cover = Logic.Cover.eval collapsed.Dontcare.Cone.cover point in
    if direct <> via_cover then ok := false
  done;
  Alcotest.(check bool) "collapse preserves function" true !ok

let test_collapse_too_wide () =
  let net = N.create () in
  let inputs = List.init 6 (fun i -> N.add_input net (Printf.sprintf "i%d" i)) in
  let rec build = function
    | [ x ] -> x
    | x :: y :: rest -> build (N.add_logic net and_cover [ x; y ] :: rest)
    | [] -> assert false
  in
  let root = build inputs in
  N.set_output net "o" root;
  match Dontcare.Cone.collapse ~max_leaves:4 net root with
  | exception Dontcare.Cone.Cone_too_wide 6 -> ()
  | exception Dontcare.Cone.Cone_too_wide n ->
    Alcotest.failf "wrong width %d" n
  | _ -> Alcotest.fail "expected Cone_too_wide"

let prop_collapse_rebuild_roundtrip =
  QCheck.Test.make ~count:40 ~name:"collapse+rebuild preserves behaviour"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net =
        Circuits.Generators.random_sequential ~seed
          { Circuits.Generators.default_profile with
            ngates = 10;
            nlatch = 3;
            npi = 3 }
      in
      N.sweep net;
      let before = N.copy net in
      (* rebuild every latch-data cone with its own collapsed cover; rebuilds
         sweep the network, so re-check each latch is still alive *)
      List.iter
        (fun l ->
          match N.node_opt net l.N.id with
          | None -> ()
          | Some l when not (N.is_latch l) -> ()
          | Some l ->
          let data = N.latch_data net l in
          if N.is_logic data then
            match Dontcare.Cone.collapse ~max_leaves:12 net data with
            | exception Dontcare.Cone.Cone_too_wide _ -> ()
            | collapsed ->
              Dontcare.Cone.rebuild net collapsed
                collapsed.Dontcare.Cone.cover)
        (N.latches net);
      N.check net;
      Oracle.seq_equivalent before net)

(* --- reachability -------------------------------------------------------------- *)

(* 2-bit counter with synchronous reset: all 4 states reachable *)
let counter2 () =
  let net = N.create ~name:"counter2" () in
  let rst = N.add_input net "rst" in
  let b0 = N.add_latch net ~name:"b0" N.I0 rst in
  let b1 = N.add_latch net ~name:"b1" N.I0 rst in
  let n0 =
    N.add_logic net ~name:"n0" (Logic.Cover.of_strings 2 [ "00" ]) [ rst; b0 ]
  in
  let x = N.add_logic net ~name:"x" xor_cover [ b1; b0 ] in
  let n1 =
    N.add_logic net ~name:"n1" (Logic.Cover.of_strings 2 [ "01" ]) [ rst; x ]
  in
  N.replace_fanin net b0 ~old_fanin:rst ~new_fanin:n0;
  N.replace_fanin net b1 ~old_fanin:rst ~new_fanin:n1;
  N.set_output net "c0" b0;
  N.set_output net "c1" b1;
  net

(* one-hot ring counter over 3 latches: only 3 of 8 states reachable *)
let ring3 () =
  let net = N.create ~name:"ring3" () in
  let a = N.add_input net "en" in
  ignore a;
  let l0 = N.add_latch net ~name:"h0" N.I1 a in
  let l1 = N.add_latch net ~name:"h1" N.I0 a in
  let l2 = N.add_latch net ~name:"h2" N.I0 a in
  let buf l = N.add_logic net (Logic.Cover.of_strings 1 [ "1" ]) [ l ] in
  N.replace_fanin net l1 ~old_fanin:a ~new_fanin:(buf l0);
  N.replace_fanin net l2 ~old_fanin:a ~new_fanin:(buf l1);
  N.replace_fanin net l0 ~old_fanin:a ~new_fanin:(buf l2);
  N.set_output net "o" l2;
  net

let test_reach_counter () =
  let r = Dontcare.Reach.unreachable_states (counter2 ()) in
  Alcotest.(check (float 0.01)) "4 reachable" 4.0 r.Dontcare.Reach.num_reachable;
  Alcotest.(check bool) "no unreachable" true
    (Logic.Cover.is_empty
       (Logic.Minimize.minimize r.Dontcare.Reach.unreachable))

let test_reach_ring () =
  let r = Dontcare.Reach.unreachable_states (ring3 ()) in
  Alcotest.(check (float 0.01)) "3 reachable" 3.0 r.Dontcare.Reach.num_reachable;
  (* state 000 is unreachable *)
  Alcotest.(check bool) "000 unreachable" true
    (Logic.Cover.eval r.Dontcare.Reach.unreachable [| false; false; false |]);
  Alcotest.(check bool) "100 reachable" true
    (Logic.Cover.eval r.Dontcare.Reach.reachable [| true; false; false |])

let test_reach_too_large () =
  let net = counter2 () in
  match Dontcare.Reach.unreachable_states ~max_latches:1 net with
  | exception Dontcare.Reach.Too_large _ -> ()
  | _ -> Alcotest.fail "expected Too_large"

let test_simplify_with_unreachable_sound () =
  let net = ring3 () in
  let before = N.copy net in
  ignore (Dontcare.Reach.simplify_with_unreachable net);
  N.check net;
  Alcotest.(check bool) "behaviour preserved" true
    (Oracle.seq_equivalent before net)

let prop_simplify_unreachable_sound =
  QCheck.Test.make ~count:30 ~name:"unreachable-DC simplification is sound"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net =
        Circuits.Generators.random_sequential ~seed
          { Circuits.Generators.default_profile with
            ngates = 12;
            nlatch = 4;
            npi = 2 }
      in
      N.sweep net;
      let before = N.copy net in
      ignore (Dontcare.Reach.simplify_with_unreachable net);
      N.check net;
      Oracle.seq_equivalent before net)

(* The paper's core claim in miniature: splitting a register across its
   fanout stem makes the "copies disagree" states unreachable. *)
let test_split_states_unreachable () =
  let net = N.create () in
  let a = N.add_input net "a" in
  let r = N.add_latch net ~name:"r" N.I0 a in
  let g1 = N.add_logic net ~name:"g1" inv_cover [ r ] in
  let g2 = N.add_logic net ~name:"g2" inv_cover [ r ] in
  N.set_output net "o1" g1;
  N.set_output net "o2" g2;
  let copies = Retiming.Moves.split_stem net r in
  Alcotest.(check int) "two copies" 2 (List.length copies);
  let reach = Dontcare.Reach.unreachable_states net in
  (* both latches share data and init: states 01 and 10 are unreachable *)
  Alcotest.(check (float 0.01)) "2 reachable of 4" 2.0
    reach.Dontcare.Reach.num_reachable;
  Alcotest.(check bool) "01 unreachable" true
    (Logic.Cover.eval reach.Dontcare.Reach.unreachable [| false; true |]);
  Alcotest.(check bool) "10 unreachable" true
    (Logic.Cover.eval reach.Dontcare.Reach.unreachable [| true; false |])

let () =
  Alcotest.run "dontcare"
    [ ( "classes",
        [ Alcotest.test_case "union-find" `Quick test_classes_basic;
          Alcotest.test_case "dc cover" `Quick test_dc_cover;
          Alcotest.test_case "partial leaves" `Quick
            test_dc_cover_partial_leaves;
          Alcotest.test_case "drop dead" `Quick test_drop_dead ] );
      ( "cone",
        [ Alcotest.test_case "collapse simple" `Quick test_collapse_simple;
          Alcotest.test_case "too wide" `Quick test_collapse_too_wide ] );
      ( "reach",
        [ Alcotest.test_case "counter fully reachable" `Quick
            test_reach_counter;
          Alcotest.test_case "ring partially reachable" `Quick test_reach_ring;
          Alcotest.test_case "effort cap" `Quick test_reach_too_large;
          Alcotest.test_case "simplification sound" `Quick
            test_simplify_with_unreachable_sound;
          Alcotest.test_case "split states unreachable" `Quick
            test_split_states_unreachable ] );
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [ prop_collapse_rebuild_roundtrip; prop_simplify_unreachable_sound ]
      ) ]
