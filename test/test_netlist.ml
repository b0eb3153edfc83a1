(* Netlist construction, editing, BLIF round-trips and invariants. *)

module N = Netlist.Network

let and_cover = Logic.Cover.of_strings 2 [ "11" ]
let or_cover = Logic.Cover.of_strings 2 [ "1-"; "-1" ]
let inv_cover = Logic.Cover.of_strings 1 [ "0" ]

(* A small FSM: toggle flip-flop with enable.
   r' = r xor en; out = r and en. *)
let toggle_circuit () =
  let net = N.create ~name:"toggle" () in
  let en = N.add_input net "en" in
  let r_placeholder = N.add_const net false in
  let r = N.add_latch net ~name:"r" N.I0 r_placeholder in
  let xor = Logic.Cover.of_strings 2 [ "10"; "01" ] in
  let next = N.add_logic net ~name:"next" xor [ en; r ] in
  N.replace_fanin net r ~old_fanin:r_placeholder ~new_fanin:next;
  let out = N.add_logic net ~name:"out" and_cover [ en; r ] in
  N.set_output net "out" out;
  N.sweep net;
  net

let test_build_and_check () =
  let net = toggle_circuit () in
  N.check net;
  Alcotest.(check int) "latches" 1 (N.num_latches net);
  Alcotest.(check int) "logic" 2 (N.num_logic net);
  Alcotest.(check int) "inputs" 1 (List.length (N.inputs net));
  Alcotest.(check int) "outputs" 1 (List.length (N.outputs net))

let test_fanout_maintenance () =
  let net = toggle_circuit () in
  let r =
    match N.find_by_name net "r" with Some n -> n | None -> assert false
  in
  (* r feeds the xor and the output AND *)
  Alcotest.(check int) "r fanouts" 2 (List.length r.N.fanouts)

let test_transfer_fanouts () =
  let net = N.create () in
  let a = N.add_input net "a" and b = N.add_input net "b" in
  let g1 = N.add_logic net ~name:"g1" and_cover [ a; b ] in
  let g2 = N.add_logic net ~name:"g2" or_cover [ a; g1 ] in
  N.set_output net "o" g1;
  N.transfer_fanouts net ~from:g1 ~to_:b;
  Alcotest.(check bool) "g1 has no fanouts" true (g1.N.fanouts = []);
  Alcotest.(check bool) "output moved" true
    ((List.assoc "o" (List.map (fun (n, x) -> (n, x.N.id)) (N.outputs net)))
     = b.N.id);
  Alcotest.(check bool) "g2 reads b twice" true
    (Array.for_all (fun f -> f = b.N.id || f = a.N.id) g2.N.fanins);
  N.delete net g1;
  N.check net

let test_duplicate_for () =
  let net = N.create () in
  let a = N.add_input net "a" and b = N.add_input net "b" in
  let g = N.add_logic net ~name:"g" and_cover [ a; b ] in
  let c1 = N.add_logic net ~name:"c1" inv_cover [ g ] in
  let c2 = N.add_logic net ~name:"c2" inv_cover [ g ] in
  N.set_output net "o1" c1;
  N.set_output net "o2" c2;
  let clone = N.duplicate_for net g ~consumer:c2 in
  N.check net;
  Alcotest.(check int) "g keeps one fanout" 1 (List.length g.N.fanouts);
  Alcotest.(check int) "clone has one fanout" 1 (List.length clone.N.fanouts);
  Alcotest.(check bool) "c2 reads clone" true (c2.N.fanins.(0) = clone.N.id)

(* Generated names never collide with names already in the network, across
   explicit names, constants, renames, deletions, copies and restores, so a
   written BLIF defines every signal once. *)
let test_fresh_names_unique () =
  let net = N.create () in
  let a = N.add_input net "a" in
  let n1 = N.add_logic net ~name:"n1" inv_cover [ a ] in
  ignore (N.add_latch net ~name:"r2" N.I0 n1);
  let names () = List.map (fun n -> n.N.name) (N.all_nodes net) in
  let unique () =
    let ns = names () in
    List.length (List.sort_uniq compare ns) = List.length ns
  in
  let g = N.add_logic net inv_cover [ a ] in
  let r = N.add_latch net N.I0 g in
  ignore (N.add_const net true);
  ignore (N.add_const net true);
  Alcotest.(check bool) "fresh names skip explicit ones" true (unique ());
  N.set_name net g "n3";
  let dup = N.copy net in
  ignore (N.add_logic dup inv_cover [ a ]);
  ignore (N.add_logic net inv_cover [ a ]);
  Alcotest.(check bool) "rename seen by fresh_name" true (unique ());
  let snap = N.copy net in
  N.set_output net "o" r;
  N.delete net (N.add_logic net ~name:"tmp" inv_cover [ a ]);
  N.restore net snap;
  ignore (N.add_latch net N.I0 g);
  Alcotest.(check bool) "restore keeps the name set" true (unique ());
  (* the split copies of one latch read back from BLIF *)
  let copies =
    let src = toggle_circuit () in
    let r =
      match N.find_by_name src "r" with Some n -> n | None -> assert false
    in
    N.set_output src "o2" (N.add_logic src ~name:"extra" inv_cover [ r ]);
    let split = Retiming.Moves.split_stem src r in
    let back = Netlist.Blif.parse_string (Netlist.Blif.to_string src) in
    Alcotest.(check int) "latches read back" (N.num_latches src)
      (N.num_latches back);
    split
  in
  Alcotest.(check int) "stem split into three copies" 3 (List.length copies)

let test_topo_cycle_detection () =
  let net = N.create () in
  let a = N.add_input net "a" in
  let g1 = N.add_logic net ~name:"g1" and_cover [ a; a ] in
  let g2 = N.add_logic net ~name:"g2" or_cover [ g1; a ] in
  (* create a combinational cycle g1 <- g2 *)
  N.replace_fanin net g1 ~old_fanin:a ~new_fanin:g2;
  N.set_output net "o" g2;
  Alcotest.check_raises "cycle detected"
    (Failure "Network.topo_combinational: combinational cycle") (fun () ->
      ignore (N.topo_combinational net))

let test_latch_cycle_is_fine () =
  let net = toggle_circuit () in
  let order = N.topo_combinational net in
  Alcotest.(check int) "both logic nodes ordered" 2 (List.length order)

let test_eval_comb () =
  let net = toggle_circuit () in
  let next =
    match N.find_by_name net "next" with Some n -> n | None -> assert false
  in
  let r =
    match N.find_by_name net "r" with Some n -> n | None -> assert false
  in
  let en =
    match N.find_by_name net "en" with Some n -> n | None -> assert false
  in
  let value en_v r_v id =
    N.eval_comb net
      (fun leaf -> if leaf = en.N.id then en_v else (assert (leaf = r.N.id); r_v))
      id
  in
  Alcotest.(check bool) "xor 10" true (value true false next.N.id);
  Alcotest.(check bool) "xor 11" false (value true true next.N.id);
  Alcotest.(check bool) "xor 01" true (value false true next.N.id)

let test_sweep_constants () =
  let net = N.create () in
  let a = N.add_input net "a" in
  let c1 = N.add_const net true in
  let g = N.add_logic net ~name:"g" and_cover [ a; c1 ] in
  N.set_output net "o" g;
  N.sweep net;
  N.check net;
  (* g should have collapsed to a buffer of a and then into a itself *)
  let o = List.assoc "o" (N.outputs net) in
  Alcotest.(check bool) "output is input a" true (o.N.id = a.N.id)

let test_sweep_dangling () =
  let net = N.create () in
  let a = N.add_input net "a" in
  let g1 = N.add_logic net ~name:"g1" inv_cover [ a ] in
  let _dangling = N.add_logic net ~name:"g2" inv_cover [ g1 ] in
  N.set_output net "o" g1;
  N.sweep net;
  Alcotest.(check int) "only g1 left" 1 (N.num_logic net)

(* One network with every case [sweep] folds, pinned to the exact node ids,
   names, covers and fanins that survive: a reordering of its three phases
   (constant fanins, constant and buffer folds, dangling nodes) or of the
   nodes they visit shows here, not only in the Table I golden. *)
let test_sweep_pinned () =
  let net = N.create () in
  let a = N.add_input net "a" and b = N.add_input net "b" in
  let c = N.add_input net "c" and d = N.add_input net "d" in
  let k0 = N.add_const net false in
  (* a dangling constant: while it lives, the folds below cannot take the
     name "const1" *)
  let _k1 = N.add_const net true in
  (* nodes fed by a constant: a*b + k0 over [a; k0; b], and a*k0, which
     becomes constant only once its constant fanin is gone *)
  let p = N.add_logic net ~name:"p" (Logic.Cover.of_strings 3 [ "1-1"; "-1-" ]) [ a; k0; b ] in
  let m = N.add_logic net ~name:"m" and_cover [ a; k0 ] in
  (* a buffer and its consumer *)
  let buf = N.add_logic net ~name:"buf" (Logic.Cover.var 1 0) [ c ] in
  let q = N.add_logic net ~name:"q" and_cover [ buf; d ] in
  (* a tautologous 3-input cover that no cube shows on its own *)
  let t =
    N.add_logic net ~name:"t"
      (Logic.Cover.of_strings 3 [ "11-"; "10-"; "0-1"; "0-0" ])
      [ a; b; c ]
  in
  (* an empty cover feeding an OR *)
  let e = N.add_logic net ~name:"e" (Logic.Cover.empty 2) [ a; d ] in
  let s = N.add_logic net ~name:"s" or_cover [ e; b ] in
  (* a dangling chain *)
  let x1 = N.add_logic net ~name:"x1" inv_cover [ a ] in
  let _x2 = N.add_logic net ~name:"x2" inv_cover [ x1 ] in
  List.iter
    (fun (name, n) -> N.set_output net name n)
    [ ("op", p); ("om", m); ("oq", q); ("ot", t); ("os", s) ];
  N.sweep net;
  N.check net;
  let show n =
    let kind =
      match n.N.kind with
      | N.Input -> "input"
      | N.Const v -> if v then "const1" else "const0"
      | N.Latch _ -> "latch"
      | N.Logic cover -> Format.asprintf "[%a]" Logic.Cover.pp cover
    in
    Printf.sprintf "%d %s %s (%s)" n.N.id n.N.name kind
      (String.concat "," (List.map string_of_int (Array.to_list n.N.fanins)))
  in
  Alcotest.(check (list string)) "surviving nodes"
    [ "0 a input ()"; "1 b input ()"; "2 c input ()"; "3 d input ()";
      "6 p [11] (0,1)"; "9 q [11] (2,3)"; "15 const01 const0 ()";
      "16 const12 const1 ()" ]
    (List.map show (N.all_nodes net));
  Alcotest.(check (list (pair string int))) "outputs"
    [ ("op", 6); ("om", 15); ("oq", 9); ("ot", 16); ("os", 1) ]
    (List.map (fun (name, n) -> (name, n.N.id)) (N.outputs net))

let test_cone () =
  let net = toggle_circuit () in
  let next =
    match N.find_by_name net "next" with Some n -> n | None -> assert false
  in
  let leaves = N.cone_leaves net next in
  Alcotest.(check int) "two leaves" 2 (List.length leaves);
  let cone = N.transitive_fanin_cone net next in
  Alcotest.(check int) "cone is just the node" 1 (List.length cone)

(* --- BLIF ------------------------------------------------------------------ *)

let sample_blif =
  {|# sample circuit
.model sample
.inputs a b
.outputs f g
.latch nf r 0
.names a b t
11 1
.names t r nf
1- 1
-1 1
.names nf f
1 1
.names r g
0 1
.end
|}

let test_blif_parse () =
  let net = Netlist.Blif.parse_string sample_blif in
  N.check net;
  Alcotest.(check string) "model" "sample" (N.model_name net);
  Alcotest.(check int) "inputs" 2 (List.length (N.inputs net));
  Alcotest.(check int) "latches" 1 (N.num_latches net);
  let r = match N.find_by_name net "r" with Some n -> n | None -> assert false in
  Alcotest.(check bool) "init 0" true (N.latch_init r = N.I0)

let test_blif_roundtrip () =
  let net = Netlist.Blif.parse_string sample_blif in
  let text = Netlist.Blif.to_string net in
  let net2 = Netlist.Blif.parse_string text in
  N.check net2;
  Alcotest.(check bool) "same behaviour" true
    (Sim.Equiv.comb_equal_exhaustive net net2);
  Alcotest.(check int) "same latches" (N.num_latches net) (N.num_latches net2)

let test_blif_complemented_cover () =
  let text = ".model m\n.inputs a b\n.outputs o\n.names a b o\n11 0\n.end\n" in
  let net = Netlist.Blif.parse_string text in
  let o = List.assoc "o" (N.outputs net) in
  (* output is nand(a,b) *)
  let eval av bv =
    N.eval_comb net
      (fun id -> if (N.node net id).N.name = "a" then av else bv)
      o.N.id
  in
  Alcotest.(check bool) "nand 11" false (eval true true);
  Alcotest.(check bool) "nand 10" true (eval true false)

(* Malformed lines fail with their line number.  Every signal has one
   driver: a second definition of an input, a latch output or a .names
   output fails at the second one. *)
let test_blif_malformed () =
  List.iter
    (fun (body, expected) ->
      let text = ".model m\n.inputs a b\n.outputs q\n" ^ body ^ ".end\n" in
      match Netlist.Blif.parse_string text with
      | _ -> Alcotest.failf "expected %S" expected
      | exception Failure msg -> Alcotest.(check string) body expected msg)
    [ (".latch a q 0\n.latch a q 1\n", "blif:5: q defined twice");
      (".latch a q 0\n.names a b q\n11 1\n", "blif:5: q defined twice");
      (".names a q\n1 1\n.latch b q\n", "blif:6: q defined twice");
      (".names q\n1\n.latch a b 0\n", "blif:6: b defined twice");
      (".names a q\n1 1\n.names b q\n1 1\n", "blif:6: q defined twice");
      ( ".names a q\nx 1\n",
        "blif:5: cover line for q has a character other than 0, 1 or -" );
      (* a fanin nothing drives is an error, not a constant 0 *)
      (".names a y q\n11 1\n", "blif: y used but never defined");
      (".latch y q 0\n", "blif: y used but never defined");
      (* a .names loop is named, not left to the first topological sort *)
      ( ".names a t u\n11 1\n.names u t\n1 1\n.names u q\n1 1\n",
        "blif: combinational cycle through u, t" );
      (".names a q q\n11 1\n", "blif: combinational cycle through q") ]

let test_blif_width_mismatch () =
  (* cube width must match the .names fanin count, caught at parse time with
     the offending line number in the diagnostic *)
  let text = ".model m\n.inputs a b\n.outputs o\n.names a b o\n1-1 1\n.end\n" in
  (match Netlist.Blif.parse_string text with
   | _ -> Alcotest.fail "expected parse failure"
   | exception Failure msg ->
     Alcotest.(check bool) "names line number" true
       (String.length msg >= 7 && String.sub msg 0 7 = "blif:5:");
     Alcotest.(check bool) "names widths" true
       (let has sub =
          let n = String.length sub and m = String.length msg in
          let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
          go 0
        in
        has "width 3" && has "declares 2"));
  (* constant covers: the single line must be one output value *)
  let const = ".model m\n.outputs o\n.names o\n11\n.end\n" in
  match Netlist.Blif.parse_string const with
  | _ -> Alcotest.fail "expected constant-cover failure"
  | exception Failure msg ->
    Alcotest.(check bool) "constant line number" true
      (String.length msg >= 7 && String.sub msg 0 7 = "blif:4:")

let test_copy_independent () =
  let net = toggle_circuit () in
  let dup = N.copy net in
  let next =
    match N.find_by_name dup "next" with Some n -> n | None -> assert false
  in
  N.set_cover dup next (Logic.Cover.of_strings 2 [ "11" ]);
  let orig_next =
    match N.find_by_name net "next" with Some n -> n | None -> assert false
  in
  Alcotest.(check bool) "original unchanged" true
    (Logic.Cover.equivalent (N.cover_of orig_next)
       (Logic.Cover.of_strings 2 [ "10"; "01" ]))

(* --- Verilog writer --------------------------------------------------------- *)

let test_verilog_writer () =
  let net = toggle_circuit () in
  let text = Netlist.Verilog.to_string net in
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "module header" true (contains "module toggle(");
  Alcotest.(check bool) "endmodule" true (contains "endmodule");
  Alcotest.(check bool) "register block" true
    (contains "always @(posedge clk)");
  Alcotest.(check bool) "initial value" true (contains "r = 1'b0");
  Alcotest.(check bool) "nonblocking update" true (contains "r <= next");
  Alcotest.(check bool) "output binding" true (contains "assign po_out = ")

let test_verilog_sanitizes_names () =
  let net = N.create ~name:"weird.model" () in
  let a = N.add_input net "sig[3]" in
  let g = N.add_logic net ~name:"1bad" inv_cover [ a ] in
  N.set_output net "o-ut" g;
  let text = Netlist.Verilog.to_string net in
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "sanitized module" true (contains "module weird_model(");
  Alcotest.(check bool) "sanitized input" true (contains "input sig_3_;");
  Alcotest.(check bool) "no bare brackets" false (contains "sig[3]")

let prop_generator_valid =
  QCheck.Test.make ~count:60 ~name:"random circuits pass invariants"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net =
        Circuits.Generators.random_sequential ~seed
          { Circuits.Generators.default_profile with ngates = 20; nlatch = 4 }
      in
      N.check net;
      (* blif round-trip preserves structure counts *)
      let net2 = Netlist.Blif.parse_string (Netlist.Blif.to_string net) in
      N.check net2;
      N.num_latches net = N.num_latches net2)

let prop_blif_roundtrip_behaviour =
  QCheck.Test.make ~count:40 ~name:"blif round-trip preserves behaviour"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net =
        Circuits.Generators.random_sequential ~seed
          { Circuits.Generators.default_profile with
            ngates = 10;
            nlatch = 3;
            npi = 3 }
      in
      let net2 = Netlist.Blif.parse_string (Netlist.Blif.to_string net) in
      Sim.Equiv.comb_equal_exhaustive net net2)

(* --- parser fuzzing ---------------------------------------------------------- *)

(* [text] after one to three random edits drawn from [seed]: a byte
   overwritten (half the time with a byte BLIF gives meaning to), the text
   truncated, two lines swapped, a line dropped or repeated, or a
   3,000-literal cube inserted. *)
let mutate_blif text seed =
  let rng = Random.State.make [| seed |] in
  let pick s = s.[Random.State.int rng (String.length s)] in
  let edit text =
    let lines = Array.of_list (String.split_on_char '\n' text) in
    let n = Array.length lines in
    let i = Random.State.int rng n in
    let join parts = String.concat "\n" (Array.to_list (Array.concat parts)) in
    match Random.State.int rng 6 with
    | 0 when text <> "" ->
      let b = Bytes.of_string text in
      Bytes.set b
        (Random.State.int rng (Bytes.length b))
        (if Random.State.bool rng then pick "01- .\\\n#"
         else Char.chr (Random.State.int rng 256));
      Bytes.to_string b
    | 0 | 1 -> String.sub text 0 (Random.State.int rng (String.length text + 1))
    | 2 ->
      let j = Random.State.int rng n in
      let line = lines.(i) in
      lines.(i) <- lines.(j);
      lines.(j) <- line;
      join [ lines ]
    | 3 -> join [ Array.sub lines 0 i; Array.sub lines (i + 1) (n - i - 1) ]
    | 4 -> join [ Array.sub lines 0 (i + 1); Array.sub lines i (n - i) ]
    | _ ->
      let cube = String.init 3000 (fun _ -> pick "01-") ^ " 1" in
      join [ Array.sub lines 0 i; [| cube |]; Array.sub lines i (n - i) ]
  in
  let rec go k text = if k = 0 then text else go (k - 1) (edit text) in
  go (1 + Random.State.int rng 3) text

let fuzz_bases =
  lazy
    (Array.map
       (fun name ->
         Netlist.Blif.to_string ((Circuits.Suite.find name).Circuits.Suite.build ()))
       [| "s27"; "s298" |])

(* The reader either rejects a mutated s27 or s298 text with [Failure] or
   returns a network that passes [Network.check]; nothing else escapes. *)
let prop_blif_fuzz =
  QCheck.Test.make ~count:2000
    ~name:"mutated BLIF fails with Failure or parses to a checked network"
    QCheck.(pair (int_range 0 1) (int_range 0 1_000_000_000))
    (fun (base, seed) ->
      let text = mutate_blif (Lazy.force fuzz_bases).(base) seed in
      match Netlist.Blif.parse_string text with
      | exception Failure _ -> true
      | net ->
        N.check net;
        true)

(* --- revisions and topo cache ---------------------------------------------- *)

(* Every public mutator bumps [revision]; those that change the output list
   also bump [outputs_revision], and no other does.  Each case prepares the
   network, samples both counters, then runs the returned edit. *)
let test_every_mutator_bumps_revision () =
  let find net name =
    match N.find_by_name net name with Some n -> n | None -> assert false
  in
  let dangling net = N.add_logic net inv_cover [ find net "en" ] in
  let cases =
    [ ("set_cover", false, fun net () ->
          N.set_cover net (find net "out") or_cover);
      ("set_binding", false, fun net () ->
          N.set_binding net (find net "out")
            (Some { N.gate_name = "and2"; gate_area = 1.0; gate_delay = 1_000 }));
      ("set_latch_init", false, fun net () ->
          N.set_latch_init net (find net "r") N.I1);
      ("replace_fanin", false, fun net () ->
          N.replace_fanin net (find net "out") ~old_fanin:(find net "en")
            ~new_fanin:(find net "next"));
      ("add_logic", false, fun net () -> ignore (dangling net));
      ("set_output", true, fun net () ->
          N.set_output net "o2" (find net "next"));
      ("retarget_output", true, fun net () ->
          N.retarget_output net "out" (find net "next"));
      ("delete", false, fun net ->
          let g = dangling net in
          fun () -> N.delete net g);
      ("sweep", false, fun net ->
          ignore (dangling net);
          fun () -> N.sweep net);
      ("restore", true, fun net ->
          let snapshot = N.copy net in
          N.set_cover net (find net "out") or_cover;
          fun () -> N.restore net snapshot) ]
  in
  List.iter
    (fun (name, outputs_change, prepare) ->
      let net = toggle_circuit () in
      let edit = prepare net in
      let r0 = N.revision net and o0 = N.outputs_revision net in
      edit ();
      Alcotest.(check bool) (name ^ " bumps revision") true
        (N.revision net > r0);
      Alcotest.(check bool)
        (name ^ " bumps outputs_revision iff the output list changes")
        outputs_change
        (N.outputs_revision net > o0))
    cases

let assert_topo_valid net order =
  (* every logic node appears exactly once, after all its logic fanins *)
  let logic = N.logic_nodes net in
  Alcotest.(check int) "all logic nodes present" (List.length logic)
    (List.length order);
  let seen = Hashtbl.create 16 in
  List.iter
    (fun n ->
      Array.iter
        (fun f ->
          if N.is_logic (N.node net f) then
            Alcotest.(check bool) "fanin ordered before node" true
              (Hashtbl.mem seen f))
        n.N.fanins;
      Hashtbl.replace seen n.N.id ())
    order

let test_topo_cache_tracks_edits () =
  let net = toggle_circuit () in
  assert_topo_valid net (N.topo_combinational net);
  (* append: fresh logic nodes extend the cached order *)
  let en = match N.find_by_name net "en" with Some n -> n | None -> assert false in
  let g = N.add_logic net ~name:"g" inv_cover [ en ] in
  let h = N.add_logic net ~name:"h" and_cover [ g; en ] in
  N.set_output net "g_out" h;
  assert_topo_valid net (N.topo_combinational net);
  (* rewire: invalidates and re-derives *)
  let out = match N.find_by_name net "out" with Some n -> n | None -> assert false in
  N.replace_fanin net out ~old_fanin:en ~new_fanin:h;
  assert_topo_valid net (N.topo_combinational net);
  N.set_function net g inv_cover [ en ];
  assert_topo_valid net (N.topo_combinational net);
  N.check net

let test_deep_fanout_edit () =
  (* remove_fanout must handle very long fanout lists (tail recursion) *)
  let net = N.create ~name:"deep" () in
  let a = N.add_input net "a" in
  let consumers =
    List.init 200_000 (fun i ->
        N.add_logic net ~name:(Printf.sprintf "b%d" i) inv_cover [ a ])
  in
  let last = List.nth consumers (200_000 - 1) in
  N.set_output net "o" last;
  Alcotest.(check int) "fanout count" 200_000 (List.length a.N.fanouts);
  (* deleting a consumer walks a's 200k-entry fanout list *)
  let victim = List.hd consumers in
  N.delete net victim;
  Alcotest.(check int) "fanout removed" 199_999 (List.length a.N.fanouts)

(* --- delay ticks ---------------------------------------------------------------- *)

(* Decimal text reads exactly into ticks; anything that is not a
   non-negative whole number of ticks is refused.  [to_string] reads back
   to the same ticks. *)
let test_delay_of_string () =
  let module D = Netlist.Delay in
  List.iter
    (fun (text, expected) ->
      Alcotest.(check (option int)) text expected (D.of_string text))
    [ ("1.2", Some 1_200); ("0.1", Some 100); (".5", Some 500);
      ("2", Some 2_000); ("2.", Some 2_000); ("1.2340", Some 1_234);
      ("13.1", Some 13_100); ("0", Some 0); ("999", Some 999_000);
      ("1.2345", None); ("-3.0", None); ("+1.0", None); ("nan", None);
      ("inf", None); ("abc", None); ("", None); (".", None); ("1e3", None);
      ("1.2.3", None); ("1_000", None); ("1234567890123", None) ];
  List.iter
    (fun t ->
      Alcotest.(check (option int)) (D.to_string t) (Some t)
        (D.of_string (D.to_string t)))
    [ 0; 1; 100; 1_234; 13_100; 999_999_999 ]

let () =
  Alcotest.run "netlist"
    [ ( "network",
        [ Alcotest.test_case "build and check" `Quick test_build_and_check;
          Alcotest.test_case "fanout maintenance" `Quick test_fanout_maintenance;
          Alcotest.test_case "transfer fanouts" `Quick test_transfer_fanouts;
          Alcotest.test_case "duplicate for consumer" `Quick test_duplicate_for;
          Alcotest.test_case "fresh names unique" `Quick test_fresh_names_unique;
          Alcotest.test_case "cycle detection" `Quick test_topo_cycle_detection;
          Alcotest.test_case "latch cycles allowed" `Quick
            test_latch_cycle_is_fine;
          Alcotest.test_case "eval_comb" `Quick test_eval_comb;
          Alcotest.test_case "sweep constants" `Quick test_sweep_constants;
          Alcotest.test_case "sweep dangling" `Quick test_sweep_dangling;
          Alcotest.test_case "sweep pinned" `Quick test_sweep_pinned;
          Alcotest.test_case "cones" `Quick test_cone;
          Alcotest.test_case "copy independence" `Quick test_copy_independent ] );
      ( "journal",
        [ Alcotest.test_case "records edits" `Quick
            test_every_mutator_bumps_revision;
          Alcotest.test_case "topo cache tracks edits" `Quick
            test_topo_cache_tracks_edits;
          Alcotest.test_case "deep fanout edit" `Quick test_deep_fanout_edit ] );
      ( "verilog",
        [ Alcotest.test_case "writer" `Quick test_verilog_writer;
          Alcotest.test_case "sanitization" `Quick
            test_verilog_sanitizes_names ] );
      ( "blif",
        [ Alcotest.test_case "parse" `Quick test_blif_parse;
          Alcotest.test_case "roundtrip" `Quick test_blif_roundtrip;
          Alcotest.test_case "complemented cover" `Quick
            test_blif_complemented_cover;
          Alcotest.test_case "width mismatch" `Quick
            test_blif_width_mismatch;
          Alcotest.test_case "malformed" `Quick test_blif_malformed ] );
      ( "delay",
        [ Alcotest.test_case "decimal text to ticks" `Quick
            test_delay_of_string ] );
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [ prop_generator_valid; prop_blif_roundtrip_behaviour;
            prop_blif_fuzz ] ) ]
