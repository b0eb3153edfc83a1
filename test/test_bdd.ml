(* BDD package tests: algebraic laws, agreement with cover semantics,
   quantification, composition and counting. *)

let all_points n =
  List.init (1 lsl n) (fun i -> Array.init n (fun v -> i land (1 lsl v) <> 0))

let gen_cover n =
  QCheck.Gen.(
    list_size (int_range 0 6)
      (array_repeat n (oneofl [ Logic.Cube.Zero; Logic.Cube.One; Logic.Cube.Both ])
       >|= Logic.Cube.of_lits)
    >|= fun cubes -> Logic.Cover.make n cubes)

let arb_cover n =
  QCheck.make ~print:(fun f -> Format.asprintf "%a" Logic.Cover.pp f) (gen_cover n)

let n_prop = 5

(* [f] over BDD variables [0..nvars-1] *)
let of_cover man f =
  Bdd.of_cover man (Array.init f.Logic.Cover.nvars (Bdd.var man)) f

let prop_of_cover_semantics =
  QCheck.Test.make ~count:200 ~name:"of_cover agrees with Cover.eval"
    (arb_cover n_prop) (fun f ->
      let man = Bdd.create () in
      let b = of_cover man f in
      List.for_all
        (fun p -> Bdd.eval man b (fun v -> p.(v)) = Logic.Cover.eval f p)
        (all_points n_prop))

let prop_canonical =
  QCheck.Test.make ~count:200 ~name:"equal functions share a handle"
    (QCheck.make QCheck.Gen.(pair (gen_cover n_prop) (gen_cover n_prop)))
    (fun (f, g) ->
      let man = Bdd.create () in
      let bf = of_cover man f and bg = of_cover man g in
      Bdd.equal bf bg = Logic.Cover.equivalent f g)

let prop_demorgan =
  QCheck.Test.make ~count:200 ~name:"De Morgan"
    (QCheck.make QCheck.Gen.(pair (gen_cover n_prop) (gen_cover n_prop)))
    (fun (f, g) ->
      let man = Bdd.create () in
      let bf = of_cover man f and bg = of_cover man g in
      Bdd.equal
        (Bdd.bnot man (Bdd.band man bf bg))
        (Bdd.bor man (Bdd.bnot man bf) (Bdd.bnot man bg)))

let prop_xor =
  QCheck.Test.make ~count:200 ~name:"xor = (a and not b) or (not a and b)"
    (QCheck.make QCheck.Gen.(pair (gen_cover n_prop) (gen_cover n_prop)))
    (fun (f, g) ->
      let man = Bdd.create () in
      let a = of_cover man f and b = of_cover man g in
      Bdd.equal (Bdd.bxor man a b)
        (Bdd.bor man
           (Bdd.band man a (Bdd.bnot man b))
           (Bdd.band man (Bdd.bnot man a) b)))

let prop_exists =
  QCheck.Test.make ~count:200 ~name:"exists v f = f_v + f_v'"
    (arb_cover n_prop) (fun f ->
      let man = Bdd.create () in
      let b = of_cover man f in
      let direct = Bdd.exists man [ 2 ] b in
      let shannon =
        Bdd.bor man (Bdd.cofactor man b 2 true) (Bdd.cofactor man b 2 false)
      in
      Bdd.equal direct shannon)

let prop_forall =
  QCheck.Test.make ~count:200 ~name:"forall v f = f_v * f_v'"
    (arb_cover n_prop) (fun f ->
      let man = Bdd.create () in
      let b = of_cover man f in
      Bdd.equal
        (Bdd.forall man [ 1; 3 ] b)
        (Bdd.forall man [ 3 ] (Bdd.forall man [ 1 ] b)))

let prop_and_exists =
  QCheck.Test.make ~count:200 ~name:"and_exists = exists of conjunction"
    (QCheck.make QCheck.Gen.(pair (gen_cover n_prop) (gen_cover n_prop)))
    (fun (f, g) ->
      let man = Bdd.create () in
      let a = of_cover man f and b = of_cover man g in
      Bdd.equal
        (Bdd.and_exists man [ 0; 2; 4 ] a b)
        (Bdd.exists man [ 0; 2; 4 ] (Bdd.band man a b)))

let prop_compose =
  QCheck.Test.make ~count:200 ~name:"compose agrees with evaluation"
    (QCheck.make QCheck.Gen.(pair (gen_cover n_prop) (gen_cover n_prop)))
    (fun (f, g) ->
      let man = Bdd.create () in
      let bf = of_cover man f and bg = of_cover man g in
      let c = Bdd.compose man bf 1 bg in
      List.for_all
        (fun p ->
          let p' = Array.copy p in
          p'.(1) <- Bdd.eval man bg (fun v -> p.(v));
          Bdd.eval man c (fun v -> p.(v)) = Bdd.eval man bf (fun v -> p'.(v)))
        (all_points n_prop))

let prop_sat_count =
  QCheck.Test.make ~count:200 ~name:"sat_count agrees with enumeration"
    (arb_cover n_prop) (fun f ->
      let man = Bdd.create () in
      let b = of_cover man f in
      let expected =
        List.length (List.filter (Logic.Cover.eval f) (all_points n_prop))
      in
      abs_float (Bdd.sat_count man ~nvars:n_prop b -. float_of_int expected)
      < 0.5)

let prop_to_cover_roundtrip =
  QCheck.Test.make ~count:150 ~name:"to_cover/of_cover roundtrip"
    (arb_cover n_prop) (fun f ->
      let man = Bdd.create () in
      let b = of_cover man f in
      let back = of_cover man (Bdd.to_cover man ~nvars:n_prop b) in
      Bdd.equal b back)

let prop_compose_identity =
  QCheck.Test.make ~count:150 ~name:"compose with the variable is identity"
    (arb_cover n_prop) (fun f ->
      let man = Bdd.create () in
      let b = of_cover man f in
      Bdd.equal b (Bdd.compose man b 2 (Bdd.var man 2)))

let prop_cover_is_disjoint =
  QCheck.Test.make ~count:100 ~name:"to_cover path cubes are pairwise disjoint"
    (arb_cover n_prop) (fun f ->
      let man = Bdd.create () in
      let c = Bdd.to_cover man ~nvars:n_prop (of_cover man f) in
      let rec pairwise = function
        | [] -> true
        | x :: rest ->
          List.for_all (fun y -> Logic.Cube.intersect x y = None) rest
          && pairwise rest
      in
      pairwise c.Logic.Cover.cubes)

let test_terminals () =
  let man = Bdd.create () in
  Alcotest.(check bool) "true" true (Bdd.is_true Bdd.btrue);
  Alcotest.(check bool) "false" true (Bdd.is_false Bdd.bfalse);
  let v = Bdd.var man 0 in
  Alcotest.(check bool) "not not v = v" true
    (Bdd.equal v (Bdd.bnot man (Bdd.bnot man v)))

let test_rename () =
  let man = Bdd.create () in
  let f = Bdd.band man (Bdd.var man 0) (Bdd.var man 1) in
  let g = Bdd.rename man f (fun v -> v + 2) in
  let expected = Bdd.band man (Bdd.var man 2) (Bdd.var man 3) in
  Alcotest.(check bool) "shifted" true (Bdd.equal g expected)

let test_rename_swap () =
  let man = Bdd.create () in
  let f = Bdd.band man (Bdd.var man 0) (Bdd.bnot man (Bdd.var man 1)) in
  let g = Bdd.rename man f (fun v -> 1 - v) in
  let expected = Bdd.band man (Bdd.var man 1) (Bdd.bnot man (Bdd.var man 0)) in
  Alcotest.(check bool) "swapped" true (Bdd.equal g expected)

let test_any_sat () =
  let man = Bdd.create () in
  let f = Bdd.band man (Bdd.var man 0) (Bdd.bnot man (Bdd.var man 2)) in
  let assignment = Bdd.any_sat man f in
  Alcotest.(check bool) "satisfies" true
    (Bdd.eval man f (fun v ->
         match List.assoc_opt v assignment with Some b -> b | None -> false))

let test_support () =
  let man = Bdd.create () in
  let f = Bdd.bxor man (Bdd.var man 1) (Bdd.var man 3) in
  Alcotest.(check (list int)) "support" [ 1; 3 ] (Bdd.support man f)

let test_size_reduced () =
  let man = Bdd.create () in
  (* x0 xor x1 xor x2 has exactly 2 nodes per level in a reduced BDD: 5
     internal nodes for 3 variables (1 + 2 + 2). *)
  let f =
    Bdd.bxor man (Bdd.var man 0) (Bdd.bxor man (Bdd.var man 1) (Bdd.var man 2))
  in
  Alcotest.(check int) "xor chain size" 5 (Bdd.size man f)

let () =
  let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests) in
  Alcotest.run "bdd"
    [ ( "basic",
        [ Alcotest.test_case "terminals" `Quick test_terminals;
          Alcotest.test_case "rename shift" `Quick test_rename;
          Alcotest.test_case "rename swap" `Quick test_rename_swap;
          Alcotest.test_case "any_sat" `Quick test_any_sat;
          Alcotest.test_case "support" `Quick test_support;
          Alcotest.test_case "reduced size" `Quick test_size_reduced ] );
      qsuite "props"
        [ prop_of_cover_semantics; prop_canonical; prop_demorgan; prop_xor;
          prop_exists; prop_forall; prop_and_exists; prop_compose;
          prop_sat_count; prop_to_cover_roundtrip; prop_compose_identity;
          prop_cover_is_disjoint ] ]
