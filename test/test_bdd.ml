(* BDD package tests: algebraic laws, agreement with cover semantics,
   quantification, composition and counting, and the table-owned memos
   under interleaved scopes. *)

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

(* --- table-owned memos ------------------------------------------------------ *)

(* Quantifications and renamings over varying variable sets, interleaved
   between two scopes on one table, so that each memo is reused, cleared
   and refilled across calls and owners. *)
type memo_op =
  | And_exists of int list * int * int
  | Exists of int list * int
  | Forall of int list * int
  | Rename of int * int (* shift every variable up by k *)

let apply man base = function
  | And_exists (vs, i, j) -> Bdd.and_exists man vs base.(i) base.(j)
  | Exists (vs, i) -> Bdd.exists man vs base.(i)
  | Forall (vs, i) -> Bdd.forall man vs base.(i)
  | Rename (k, i) -> Bdd.rename man base.(i) (fun v -> v + k)

let memo_nvars = 6

let base_of man covers = Array.map (of_cover man) covers

(* operands over variables 0..5, renamed at most to 15 *)
let render man f =
  Format.asprintf "%a" Logic.Cover.pp (Bdd.to_cover man ~nvars:16 f)

let print_op = function
  | And_exists (vs, i, j) ->
    Printf.sprintf "and_exists [%s] %d %d"
      (String.concat ";" (List.map string_of_int vs)) i j
  | Exists (vs, i) ->
    Printf.sprintf "exists [%s] %d"
      (String.concat ";" (List.map string_of_int vs)) i
  | Forall (vs, i) ->
    Printf.sprintf "forall [%s] %d"
      (String.concat ";" (List.map string_of_int vs)) i
  | Rename (k, i) -> Printf.sprintf "rename +%d %d" k i

let gen_memo_case =
  QCheck.Gen.(
    let operand = int_bound 2 in
    (* two variable sets, some reaching past the operands' variables, so
       that ops often repeat a set, on the same scope or the other one, as
       well as change it *)
    list_repeat 2 (list_size (int_range 0 4) (int_bound 7)) >>= fun sets ->
    let set = oneofl sets in
    let op =
      frequency
        [ (3, map3 (fun vs i j -> And_exists (vs, i, j)) set operand operand);
          (2, map2 (fun vs i -> Exists (vs, i)) set operand);
          (2, map2 (fun vs i -> Forall (vs, i)) set operand);
          (1, map2 (fun k i -> Rename (k, i)) (int_range 1 10) operand) ]
    in
    (* covers of at least two cubes, so that few operands are constants *)
    let cover =
      map2
        (fun c more ->
          Logic.Cover.make memo_nvars
            (c.Logic.Cover.cubes @ more.Logic.Cover.cubes))
        (gen_cover memo_nvars) (gen_cover memo_nvars)
    in
    pair (array_repeat 3 cover) (list_size (int_range 4 12) (pair bool op)))

let print_memo_case (covers, script) =
  String.concat "\n"
    (Array.to_list
       (Array.map (fun c -> Format.asprintf "%a" Logic.Cover.pp c) covers)
    @ List.map
        (fun (on_a, op) -> (if on_a then "A: " else "B: ") ^ print_op op)
        script)

(* Every result equals the same op run alone in a fresh scope on a fresh
   domain, and each scope's [node_count] equals a replay of its own ops in
   a fresh scope on a fresh domain. *)
let prop_memos_interleaved =
  QCheck.Test.make ~count:100
    ~name:"memos: interleaved scopes match fresh references"
    (QCheck.make ~print:print_memo_case gen_memo_case)
    (fun (covers, script) ->
      let a = Bdd.create () and b = Bdd.create () in
      let base_a = base_of a covers and base_b = base_of b covers in
      let results =
        List.map
          (fun (on_a, op) ->
            let man, base = if on_a then (a, base_a) else (b, base_b) in
            render man (apply man base op))
          script
      in
      let reference =
        Domain.join
          (Domain.spawn (fun () ->
               List.map
                 (fun (_, op) ->
                   let man = Bdd.create () in
                   render man (apply man (base_of man covers) op))
                 script))
      in
      let replay on_a =
        Domain.join
          (Domain.spawn (fun () ->
               let man = Bdd.create () in
               let base = base_of man covers in
               List.iter
                 (fun (o, op) -> if o = on_a then ignore (apply man base op))
                 script;
               Bdd.node_count man))
      in
      results = reference
      && Bdd.node_count a = replay true
      && Bdd.node_count b = replay false)

(* The quantification memo is kept from one call to the next only for the
   same scope: a second scope quantifying the same function over the same
   set right after the first must charge the result's nodes itself. *)
let test_memo_owner () =
  let build man =
    let v = Bdd.var man in
    Bdd.bxor man
      (Bdd.band man (v 0) (v 3))
      (Bdd.bor man (v 1) (Bdd.band man (v 2) (v 4)))
  in
  let run ~after_other =
    let a = Bdd.create () and b = Bdd.create () in
    let fa = build a and fb = build b in
    if after_other then ignore (Bdd.exists a [ 1; 2 ] fa);
    ignore (Bdd.exists b [ 1; 2 ] fb);
    Bdd.node_count b
  in
  let fresh = Domain.join (Domain.spawn (fun () -> run ~after_other:false)) in
  Alcotest.(check int) "node_count after another scope's call" fresh
    (run ~after_other:true)

(* Operands whose every variable lies below (after) every quantified one:
   quantification returns them unchanged and [and_exists] is the plain
   conjunction. *)
let test_quantify_below_set () =
  let man = Bdd.create () in
  let v = Bdd.var man in
  let f = Bdd.bxor man (v 4) (Bdd.band man (v 5) (v 7)) in
  let g = Bdd.bor man (v 6) (Bdd.bnot man (v 5)) in
  let vars = [ 3; 0; 2 ] in
  Alcotest.(check bool) "exists" true (Bdd.equal (Bdd.exists man vars f) f);
  Alcotest.(check bool) "forall" true (Bdd.equal (Bdd.forall man vars g) g);
  Alcotest.(check bool) "and_exists" true
    (Bdd.equal (Bdd.and_exists man vars f g) (Bdd.band man f g));
  Alcotest.(check bool) "and_exists with true" true
    (Bdd.equal (Bdd.and_exists man vars Bdd.btrue g) g)

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
          Alcotest.test_case "reduced size" `Quick test_size_reduced;
          Alcotest.test_case "quantify below set" `Quick
            test_quantify_below_set;
          Alcotest.test_case "memo owner" `Quick test_memo_owner ] );
      qsuite "memos" [ prop_memos_interleaved ];
      qsuite "props"
        [ prop_of_cover_semantics; prop_canonical; prop_demorgan; prop_xor;
          prop_exists; prop_forall; prop_and_exists; prop_compose;
          prop_sat_count; prop_to_cover_roundtrip; prop_compose_identity;
          prop_cover_is_disjoint ] ]
