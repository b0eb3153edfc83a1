(* Tests for the two-level logic package: cubes, covers, minimization and
   factoring, checked against dense truth tables as reference semantics. *)

let cube = Alcotest.testable Logic.Cube.pp Logic.Cube.equal
let cover_t = Alcotest.testable Logic.Cover.pp Logic.Cover.equivalent

(* --- generators ---------------------------------------------------------- *)

let gen_cube n =
  QCheck.Gen.(
    array_repeat n (oneofl [ Logic.Cube.Zero; Logic.Cube.One; Logic.Cube.Both ])
    >|= Logic.Cube.of_lits)

let gen_cover n =
  QCheck.Gen.(
    list_size (int_range 0 6) (gen_cube n) >|= fun cubes ->
    Logic.Cover.make n cubes)

let arb_cover n =
  QCheck.make
    ~print:(fun f -> Format.asprintf "%a" Logic.Cover.pp f)
    (gen_cover n)

let arb_cover_pair n =
  QCheck.make
    ~print:(fun (f, g) ->
      Format.asprintf "%a | %a" Logic.Cover.pp f Logic.Cover.pp g)
    QCheck.Gen.(pair (gen_cover n) (gen_cover n))

let all_points n =
  List.init (1 lsl n) (fun i -> Array.init n (fun v -> i land (1 lsl v) <> 0))

let same_function n f g =
  List.for_all
    (fun p -> Logic.Cover.eval f p = Logic.Cover.eval g p)
    (all_points n)

(* --- cube unit tests ------------------------------------------------------ *)

let test_cube_string () =
  let c = Logic.Cube.of_string "01-1" in
  Alcotest.(check string) "roundtrip" "01-1" (Logic.Cube.to_string c);
  Alcotest.(check int) "lit count" 3 (Logic.Cube.lit_count c);
  Alcotest.(check bool) "depends 0" true (Logic.Cube.depends_on c 0);
  Alcotest.(check bool) "depends 2" false (Logic.Cube.depends_on c 2)

let test_cube_contains () =
  let big = Logic.Cube.of_string "1--" and small = Logic.Cube.of_string "101" in
  Alcotest.(check bool) "big contains small" true (Logic.Cube.contains big small);
  Alcotest.(check bool) "small contains big" false (Logic.Cube.contains small big);
  Alcotest.(check bool) "self" true (Logic.Cube.contains big big)

let test_cube_intersect () =
  let a = Logic.Cube.of_string "1-0" and b = Logic.Cube.of_string "-10" in
  (match Logic.Cube.intersect a b with
   | Some c -> Alcotest.check cube "product" (Logic.Cube.of_string "110") c
   | None -> Alcotest.fail "expected intersection");
  let c = Logic.Cube.of_string "0--" in
  Alcotest.(check bool) "disjoint" true (Logic.Cube.intersect a c = None)

let test_cube_distance_consensus () =
  let a = Logic.Cube.of_string "10-" and b = Logic.Cube.of_string "11-" in
  Alcotest.(check int) "distance 1" 1 (Logic.Cube.distance a b);
  (match Logic.Cube.consensus a b with
   | Some c -> Alcotest.check cube "consensus" (Logic.Cube.of_string "1--") c
   | None -> Alcotest.fail "expected consensus");
  let c = Logic.Cube.of_string "01-" in
  Alcotest.(check int) "distance 2" 2 (Logic.Cube.distance a c);
  Alcotest.(check bool) "no consensus" true (Logic.Cube.consensus a c = None)

let test_cube_supercube () =
  let a = Logic.Cube.of_string "101" and b = Logic.Cube.of_string "111" in
  Alcotest.check cube "supercube" (Logic.Cube.of_string "1-1")
    (Logic.Cube.supercube a b)

let test_cube_cofactor () =
  let a = Logic.Cube.of_string "1-0" in
  (match Logic.Cube.cofactor a 0 Logic.Cube.One with
   | Some c -> Alcotest.check cube "cofactor" (Logic.Cube.of_string "--0") c
   | None -> Alcotest.fail "cofactor should exist");
  Alcotest.(check bool) "opposing literal" true
    (Logic.Cube.cofactor a 0 Logic.Cube.Zero = None)

(* --- cover unit tests ----------------------------------------------------- *)

let test_cover_tautology () =
  (* x + x' is a tautology. *)
  let f = Logic.Cover.of_strings 1 [ "1"; "0" ] in
  Alcotest.(check bool) "x + x'" true (Logic.Cover.is_tautology f);
  let g = Logic.Cover.of_strings 2 [ "1-"; "01" ] in
  Alcotest.(check bool) "not tautology" false (Logic.Cover.is_tautology g);
  let h = Logic.Cover.of_strings 2 [ "1-"; "01"; "00" ] in
  Alcotest.(check bool) "full cover" true (Logic.Cover.is_tautology h)

let test_cover_complement_xor () =
  (* complement of xor is xnor *)
  let xor = Logic.Cover.of_strings 2 [ "10"; "01" ] in
  let xnor = Logic.Cover.of_strings 2 [ "11"; "00" ] in
  Alcotest.check cover_t "xnor" xnor (Logic.Cover.complement xor)

let test_cover_sharp () =
  let f = Logic.Cover.of_strings 2 [ "1-" ] in
  let g = Logic.Cover.of_strings 2 [ "11" ] in
  let d = Logic.Cover.sharp f g in
  Alcotest.check cover_t "a and not b" (Logic.Cover.of_strings 2 [ "10" ]) d

let test_cover_covers () =
  let f = Logic.Cover.of_strings 3 [ "1--"; "-1-" ] in
  let g = Logic.Cover.of_strings 3 [ "11-"; "1-0" ] in
  Alcotest.(check bool) "covers" true (Logic.Cover.covers f g);
  Alcotest.(check bool) "not covers" false (Logic.Cover.covers g f)

(* Brute-force containment reference: the deduplicated cubes that no other
   cube strictly contains (literal by literal, independent of the packed
   kernel), in [Cube.compare] order. *)
let scc_reference cubes =
  let dedup = List.sort_uniq Logic.Cube.compare cubes in
  let contains d c =
    let ok = ref true in
    for v = 0 to Logic.Cube.nvars c - 1 do
      let l = Logic.Cube.get d v in
      if l <> Logic.Cube.Both && l <> Logic.Cube.get c v then ok := false
    done;
    !ok
  in
  List.filter
    (fun c ->
      not
        (List.exists
           (fun d -> Logic.Cube.compare d c <> 0 && contains d c)
           dedup))
    dedup

(* Far above the 46 cubes of the largest cover a Table I flow builds, so
   the sweep is checked at sizes no flow reaches.  Three in four literals
   are don't-cares, so a few thousand of the ~10^6 pairs are containments. *)
let random_cover ~vars ~cubes =
  let st = Random.State.make [| vars; cubes |] in
  List.init cubes (fun _ ->
      Logic.Cube.of_string
        (String.init vars (fun _ ->
             match Random.State.int st 8 with 0 -> '0' | 1 -> '1' | _ -> '-')))

let test_cover_scc () =
  List.iter
    (fun (name, nvars, cubes) ->
      let r =
        Logic.Cover.single_cube_containment (Logic.Cover.make nvars cubes)
      in
      let expected = scc_reference cubes in
      Alcotest.(check (list cube)) name expected r.Logic.Cover.cubes;
      if List.length cubes > 1 then
        Alcotest.(check bool) (name ^ " removes a cube") true
          (List.length expected < List.length cubes))
    [ ("duplicates and a contained cube", 2,
       List.map Logic.Cube.of_string [ "1-"; "11"; "1-" ]);
      ("empty", 3, []);
      ("chain", 3, List.map Logic.Cube.of_string [ "110"; "1--"; "11-" ]);
      ("1024 cubes over 24 vars", 24, random_cover ~vars:24 ~cubes:1024) ]

let test_cover_support () =
  let f = Logic.Cover.of_strings 4 [ "1--0"; "-0--" ] in
  Alcotest.(check (list int)) "support" [ 0; 1; 3 ] (Logic.Cover.support f)

let test_cover_rename () =
  let f = Logic.Cover.of_strings 2 [ "10" ] in
  let g = Logic.Cover.rename f 3 [| 2; 0 |] in
  Alcotest.check cover_t "renamed" (Logic.Cover.of_strings 3 [ "0-1" ]) g

(* --- cover properties ----------------------------------------------------- *)

let n_prop = 4

let prop_complement =
  QCheck.Test.make ~count:200 ~name:"complement is pointwise negation"
    (arb_cover n_prop) (fun f ->
      let fc = Logic.Cover.complement f in
      List.for_all
        (fun p -> Logic.Cover.eval fc p = not (Logic.Cover.eval f p))
        (all_points n_prop))

let prop_sharp =
  QCheck.Test.make ~count:200 ~name:"sharp is set difference"
    (arb_cover_pair n_prop) (fun (f, g) ->
      let d = Logic.Cover.sharp f g in
      List.for_all
        (fun p ->
          Logic.Cover.eval d p
          = (Logic.Cover.eval f p && not (Logic.Cover.eval g p)))
        (all_points n_prop))

let prop_tautology =
  QCheck.Test.make ~count:200 ~name:"tautology agrees with evaluation"
    (arb_cover n_prop) (fun f ->
      Logic.Cover.is_tautology f
      = List.for_all (Logic.Cover.eval f) (all_points n_prop))

let prop_covers =
  QCheck.Test.make ~count:200 ~name:"covers agrees with implication"
    (arb_cover_pair n_prop) (fun (f, g) ->
      Logic.Cover.covers f g
      = List.for_all
          (fun p -> (not (Logic.Cover.eval g p)) || Logic.Cover.eval f p)
          (all_points n_prop))

(* Covers of 0-7 variables straddle [Cube.word_vars] = 5, where the
   containment tests switch from one word of minterm bits to the unate
   recursion.  A table tabulated point by point by [Cover.eval] decides each
   question independently, and [Truthtab.of_cover], which shares the word
   masks, must build the same table.  [f + g']
   and [f + f*g] give tautologies and equivalences that random pairs rarely
   do. *)
let prop_containment_word_boundary =
  QCheck.Test.make ~count:500
    ~name:"containment tests agree with truth tables at 0-7 variables"
    (QCheck.make
       ~print:(fun (n, f, g, c) ->
         Format.asprintf "n=%d f=%a g=%a c=%a" n Logic.Cover.pp f
           Logic.Cover.pp g Logic.Cube.pp c)
       QCheck.Gen.(
         int_range 0 7 >>= fun n ->
         map3 (fun f g c -> (n, f, g, c)) (gen_cover n) (gen_cover n)
           (gen_cube n)))
    (fun (n, f, g, c) ->
      let open Logic in
      let tt h = Truthtab.create n (Cover.eval h) in
      let taut h = Truthtab.equal (tt h) (Truthtab.const n true) in
      let implies h k = Truthtab.equal (Truthtab.bor (tt h) (tt k)) (tt k) in
      let f_or_not_g = Cover.union f (Cover.complement g) in
      let f_or_fg = Cover.union f (Cover.intersect f g) in
      let cube = Cover.make n [ c ] in
      Truthtab.equal (Truthtab.of_cover f) (tt f)
      && Cover.is_tautology f = taut f
      && Cover.is_tautology f_or_not_g = taut f_or_not_g
      && Cover.equivalent f g = Truthtab.equal (tt f) (tt g)
      && Cover.equivalent f f_or_fg
      && Cover.covers f g = implies g f
      && Cover.covers g f = implies f g
      && Cover.covers_cube f c = implies cube f)

let prop_intersect =
  QCheck.Test.make ~count:200 ~name:"intersect is conjunction"
    (arb_cover_pair n_prop) (fun (f, g) ->
      let h = Logic.Cover.intersect f g in
      List.for_all
        (fun p ->
          Logic.Cover.eval h p = (Logic.Cover.eval f p && Logic.Cover.eval g p))
        (all_points n_prop))

(* --- minimization --------------------------------------------------------- *)

let test_minimize_simple () =
  (* ab + ab' = a *)
  let f = Logic.Cover.of_strings 2 [ "11"; "10" ] in
  let m = Logic.Minimize.minimize f in
  Alcotest.check cover_t "merged" (Logic.Cover.of_strings 2 [ "1-" ]) m;
  Alcotest.(check int) "one cube" 1 (Logic.Cover.size m)

let test_minimize_with_dc () =
  (* f = ab, dc = ab' : minimizer may absorb the DC minterm, giving a. *)
  let f = Logic.Cover.of_strings 2 [ "11" ] in
  let dc = Logic.Cover.of_strings 2 [ "10" ] in
  let m = Logic.Minimize.minimize ~dc f in
  Alcotest.(check int) "one literal" 1 (Logic.Cover.lit_count m)

let test_minimize_xor_dc () =
  (* The paper's mechanism: f = r1 * r2 with DC = r1 xor r2 simplifies to a
     single literal because the disagreeing points never occur. *)
  let f = Logic.Cover.of_strings 2 [ "11" ] in
  let dc = Logic.Cover.of_strings 2 [ "10"; "01" ] in
  let m = Logic.Minimize.minimize ~dc f in
  Alcotest.(check int) "single literal" 1 (Logic.Cover.lit_count m)

let prop_minimize_preserves =
  QCheck.Test.make ~count:200 ~name:"minimize preserves the care function"
    (arb_cover_pair n_prop) (fun (f, dc) ->
      let m = Logic.Minimize.minimize ~dc f in
      List.for_all
        (fun p ->
          Logic.Cover.eval dc p
          || Logic.Cover.eval m p = Logic.Cover.eval f p)
        (all_points n_prop))

let prop_minimize_within_dc =
  QCheck.Test.make ~count:200 ~name:"minimize stays inside on+dc"
    (arb_cover_pair n_prop) (fun (f, dc) ->
      let m = Logic.Minimize.minimize ~dc f in
      List.for_all
        (fun p ->
          (not (Logic.Cover.eval m p))
          || Logic.Cover.eval f p || Logic.Cover.eval dc p)
        (all_points n_prop))

let prop_minimize_no_growth =
  QCheck.Test.make ~count:200 ~name:"minimize never increases cube count"
    (arb_cover n_prop) (fun f ->
      Logic.Cover.size (Logic.Minimize.minimize f) <= Logic.Cover.size f)

let prop_exact_preserves =
  QCheck.Test.make ~count:100 ~name:"exact minimization preserves care function"
    (arb_cover_pair n_prop) (fun (f, dc) ->
      let m = Oracle.Two_level.minimize_exact_small ~dc f in
      List.for_all
        (fun p ->
          Logic.Cover.eval dc p
          || Logic.Cover.eval m p = Logic.Cover.eval f p)
        (all_points n_prop))

let prop_heuristic_close_to_exact =
  QCheck.Test.make ~count:100 ~name:"espresso-lite within 2x of exact cubes"
    (arb_cover n_prop) (fun f ->
      let h = Logic.Minimize.minimize f in
      let e = Oracle.Two_level.minimize_exact_small f in
      Logic.Cover.size h <= (2 * Logic.Cover.size e) + 1)

(* The kernel against [Oracle.Two_level], its form before REDUCE cofactored
   and EXPAND, IRREDUNDANT and the complement were cut short: each pass and
   the full loop, with and without DC, must agree cube for cube.  Widths run
   up to the largest DC_ret cone (14) and across the 31-variable word
   boundary (30-33).  Wide cubes bind few variables, so the reference's
   complement of the whole rest stays small. *)
let gen_reduce_case =
  let open QCheck.Gen in
  oneof [ int_range 1 14; int_range 30 33 ] >>= fun n ->
  let cube =
    if n <= 14 then gen_cube n
    else
      list_size (int_range 0 4) (pair (int_bound (n - 1)) bool) >|= fun lits ->
      let c = Logic.Cube.universe n in
      List.iter
        (fun (v, b) ->
          Logic.Cube.set c v (if b then Logic.Cube.One else Logic.Cube.Zero))
        lits;
      c
  in
  let cubes lo hi = list_size (int_range lo hi) cube in
  frequency
    [ (3, pair (cubes 0 6) (cubes 0 3));
      (1, pair (cubes 0 6) (return []));
      (1, pair (cubes 1 1) (cubes 0 3));
      (1, pair (cubes 0 4 >|= List.cons (Logic.Cube.universe n)) (cubes 0 2));
      (1, pair (cubes 1 4) (cubes 0 2 >|= List.cons (Logic.Cube.universe n))) ]
  >|= fun (f, dc) -> (Logic.Cover.make n f, Logic.Cover.make n dc)

let prop_reduce_matches_reference =
  let same a b =
    List.equal Logic.Cube.equal a.Logic.Cover.cubes b.Logic.Cover.cubes
  in
  QCheck.Test.make ~count:1000
    ~name:"two-level kernel matches its reference"
    (QCheck.make
       ~print:(fun (f, dc) ->
         Format.asprintf "%d vars: %a | %a" f.Logic.Cover.nvars Logic.Cover.pp f
           Logic.Cover.pp dc)
       gen_reduce_case)
    (fun (f, dc) ->
      let module M = Logic.Minimize in
      let module R = Oracle.Two_level in
      let both = Logic.Cover.union f dc in
      let off = Logic.Cover.complement both in
      let primes = M.expand ~off f |> M.irredundant ~dc in
      same (Logic.Cover.complement both) (R.complement both)
      && same (M.expand ~off f) (R.expand ~off f)
      && same (M.irredundant ~dc f) (R.irredundant ~dc f)
      && same (M.reduce ~dc f) (R.reduce ~dc f)
      && same (M.reduce ~dc primes) (R.reduce ~dc primes)
      && same (M.minimize ~dc f) (R.minimize ~dc f)
      && same (M.minimize f) (R.minimize f))

(* The dense path of [minimize] (every call of at most 14 variables)
   against the cover path, which it must match cube for cube, in order.
   Widths 0, 5, 6, 13 and 14 sit on the word layout's boundaries: no
   variable, one full word, the first word-selecting variable, and the two
   widest cones.  Literal density varies so that some wide covers have few
   points and some many; the cover path's complement of a wide cover of
   dense cubes is what bounds the case count. *)
let gen_dense_case_of n =
  let open QCheck.Gen in
  oneofl [ 1; 2; 4 ] >>= fun weight ->
  let lit =
    frequency
      [ (weight, return Logic.Cube.Zero); (weight, return Logic.Cube.One);
        (4, return Logic.Cube.Both) ]
  in
  let cubes hi =
    list_size (int_range 0 hi) (array_repeat n lit >|= Logic.Cube.of_lits)
  in
  pair (cubes 12) (cubes 6) >|= fun (f, dc) ->
  (Logic.Cover.make n f, Logic.Cover.make n dc)

let gen_dense_case =
  QCheck.Gen.(
    frequency [ (1, oneofl [ 0; 5; 6; 13; 14 ]); (1, int_range 0 14) ]
    >>= gen_dense_case_of)

let dense_matches_cover (f, dc) =
  let same a b =
    List.equal Logic.Cube.equal a.Logic.Cover.cubes b.Logic.Cover.cubes
  in
  let module M = Logic.Minimize in
  same (M.minimize ~dc f) (M.Internal.by_cover ~dc f)
  && same (M.minimize f) (M.Internal.by_cover f)

let print_case (f, dc) =
  Format.asprintf "%d vars: %a | %a" f.Logic.Cover.nvars Logic.Cover.pp f
    Logic.Cover.pp dc

let prop_dense_matches_cover =
  QCheck.Test.make ~count:1000 ~name:"dense minimize matches the cover path"
    (QCheck.make ~print:print_case gen_dense_case)
    dense_matches_cover

(* Each boundary width on a fixed random stream, so every run reaches it
   whatever the QCheck seed. *)
let test_dense_boundaries () =
  let rand = Random.State.make [| 0xd5e |] in
  List.iter
    (fun n ->
      for _ = 1 to 40 do
        let case = QCheck.Gen.generate1 ~rand (gen_dense_case_of n) in
        if not (dense_matches_cover case) then
          Alcotest.failf "dense path differs on %s" (print_case case)
      done)
    [ 0; 5; 6; 13; 14 ]

(* A cone of bbara's resynth/dc-simplify: 13 leaves, 97 ON cubes and 8 DC
   cubes; the result is pinned as well as matched against the cover path. *)
let test_dense_bbara_cone () =
  let f =
    Logic.Cover.of_strings 13
      [ "0-00000-0-011"; "0-00000-0-1--"; "0-00000-10011"; "0-00000-101--";
        "0-00000-11---"; "0-00001-11---"; "0-000100--011"; "0-000100--1--";
        "0-0001010-011"; "0-0001010-1--"; "0-00010110011"; "0-000101101--";
        "0-00010111---"; "0-00100-0-011"; "0-00100-0-1--"; "0-00100-10011";
        "0-00100-101--"; "0-00100-11---"; "0-00101--0-0-"; "0-00101--1---";
        "0-001100--011"; "0-001100--1--"; "0-0011010-011"; "0-0011010-1--";
        "0-00110110011"; "0-001101101--"; "0-00110111---"; "0-00111--0-0-";
        "0-00111--1---"; "0-10-00-0-011"; "0-10-00-0-1--"; "0-10-00-10011";
        "0-10-00-101--"; "0-10-00-11---"; "0-10-01-11---"; "0-10-100--011";
        "0-10-100--1--"; "0-10-1010-011"; "0-10-1010-1--"; "0-10-10110011";
        "0-10-101101--"; "0-10-10111---"; "1000000-0-011"; "1000000-10011";
        "1000000-11---"; "1000001-11---"; "10000100--011"; "100001010-011";
        "1000010110011"; "1000010111---"; "1000100-0-011"; "1000100-10011";
        "1000100-11---"; "1000101--0-0-"; "1000101--1---"; "10001100--011";
        "100011010-011"; "1000110110011"; "1000110111---"; "1000111--0-0-";
        "1000111--1---"; "1001---------"; "1010-00-0-011"; "1010-00-10011";
        "1010-00-11---"; "1010-01-11---"; "1010-100--011"; "1010-1010-011";
        "1010-10110011"; "1010-10111---"; "1100000-0-011"; "1100000-10011";
        "1100000-11---"; "1100001-11---"; "11000100--011"; "110001010-011";
        "1100010110011"; "1100010111---"; "1100100-0-011"; "1100100-10011";
        "1100100-11---"; "1100101--0-0-"; "1100101--1---"; "11001100--011";
        "110011010-011"; "1100110110011"; "1100110111---"; "1100111--0-0-";
        "1100111--1---"; "1110-00-0-011"; "1110-00-10011"; "1110-00-11---";
        "1110-01-11---"; "1110-100--011"; "1110-1010-011"; "1110-10110011";
        "1110-10111---" ]
  in
  let dc =
    Logic.Cover.of_strings 13
      [ "----1--0-----"; "----0--1-----"; "--------0-1--"; "--------1-0--";
        "--0-------1--"; "--1-------0--"; "--0-----1----"; "--1-----0----" ]
  in
  let expected =
    [ "0--0--0---1--"; "1001---------"; "--001-1--1---"; "--001-1----0-";
      "---0-0--11---"; "---0--0111---"; "---0--0---011" ]
  in
  Alcotest.(check bool) "dense = cover path" true (dense_matches_cover (f, dc));
  Alcotest.(check (list string))
    "minimized" expected
    (List.map Logic.Cube.to_string
       (Logic.Minimize.minimize ~dc f).Logic.Cover.cubes)

let prop_minimize_irredundant =
  QCheck.Test.make ~count:150 ~name:"minimized cover is irredundant"
    (arb_cover_pair n_prop) (fun (f, dc) ->
      let m = Logic.Minimize.minimize ~dc f in
      (* no cube is covered by the remaining cubes plus the DC set *)
      let rec check kept = function
        | [] -> true
        | c :: rest ->
          let others =
            Logic.Cover.union (Logic.Cover.make n_prop (kept @ rest)) dc
          in
          (not (Logic.Cover.covers_cube others c)) && check (c :: kept) rest
      in
      Logic.Cover.is_empty m || check [] m.Logic.Cover.cubes)

let prop_minimize_prime =
  QCheck.Test.make ~count:150 ~name:"minimized cubes are prime"
    (arb_cover_pair n_prop) (fun (f, dc) ->
      let m = Logic.Minimize.minimize ~dc f in
      if Logic.Cover.is_empty m then true
      else begin
        let on_dc = Logic.Cover.union f dc in
        (* raising any literal of any cube must leave the care ON-set *)
        List.for_all
          (fun cube ->
            List.for_all
              (fun v ->
                (not (Logic.Cube.depends_on cube v))
                || not
                     (Logic.Cover.covers_cube on_dc (Logic.Cube.raise_var cube v)))
              (List.init n_prop Fun.id))
          m.Logic.Cover.cubes
      end)

let prop_kernels_divide =
  QCheck.Test.make ~count:150 ~name:"kernels are cube-free and divide f"
    (arb_cover n_prop) (fun f ->
      List.for_all
        (fun (_, k) ->
          Logic.Factor.cube_free k
          &&
          let q, _ = Logic.Factor.divide f k in
          (* kernel must divide f algebraically unless it IS f *)
          Logic.Cover.equivalent k f || not (Logic.Cover.is_empty q))
        (Logic.Factor.kernels f))

let prop_supercube_contains =
  QCheck.Test.make ~count:200 ~name:"supercube contains both cubes"
    (QCheck.make QCheck.Gen.(pair (gen_cube n_prop) (gen_cube n_prop)))
    (fun (a, b) ->
      let s = Logic.Cube.supercube a b in
      Logic.Cube.contains s a && Logic.Cube.contains s b)

(* --- truth tables --------------------------------------------------------- *)

let test_tt_roundtrip () =
  let f = Logic.Cover.of_strings 3 [ "1-0"; "01-" ] in
  let t = Logic.Truthtab.of_cover f in
  let back = Logic.Truthtab.to_cover t in
  Alcotest.check cover_t "roundtrip" f back

let test_tt_ops () =
  let a = Logic.Truthtab.var 2 0 and b = Logic.Truthtab.var 2 1 in
  let xor = Logic.Truthtab.bxor a b in
  Alcotest.(check int) "xor ones" 2 (Logic.Truthtab.count_ones xor);
  Alcotest.(check bool) "depends" true (Logic.Truthtab.depends_on xor 0);
  let const = Logic.Truthtab.bxor xor xor in
  Alcotest.(check bool) "no depend" false (Logic.Truthtab.depends_on const 0)

let test_tt_cofactor () =
  let a = Logic.Truthtab.var 2 0 and b = Logic.Truthtab.var 2 1 in
  let f = Logic.Truthtab.band a b in
  let c = Logic.Truthtab.cofactor f 0 true in
  Alcotest.(check bool) "cofactor = b" true (Logic.Truthtab.equal c b)

(* The word layout against point-wise evaluation, on widths below, at and
   above the 5 variables of one word. *)
let prop_truthtab_layout =
  QCheck.Test.make ~count:300 ~name:"truth table agrees with the cover"
    (QCheck.make
       ~print:(fun (f, _) -> Format.asprintf "%a" Logic.Cover.pp f)
       QCheck.Gen.(
         int_range 0 8 >>= fun n ->
         pair (gen_cover n) (int_bound (max 0 (n - 1)))))
    (fun (f, v) ->
      let module T = Logic.Truthtab in
      let n = f.Logic.Cover.nvars in
      let t = T.of_cover f in
      let points = all_points n in
      let agrees t g = List.for_all (fun p -> T.eval t p = g p) points in
      let ones = List.length (List.filter (Logic.Cover.eval f) points) in
      let t' = T.create n (Logic.Cover.eval f) in
      T.equal t t'
      && agrees t (Logic.Cover.eval f)
      && T.count_ones t = ones
      && T.count_ones (T.bnot t) = (1 lsl n) - ones
      && T.equal (T.of_cover (T.to_cover t)) t
      && (n = 0
          ||
          let cof b p =
            let p = Array.copy p in
            p.(v) <- b;
            Logic.Cover.eval f p
          in
          agrees (T.cofactor t v true) (cof true)
          && agrees (T.cofactor t v false) (cof false)
          && agrees (T.var n v) (fun p -> p.(v))
          && T.depends_on t v
             = List.exists (fun p -> cof true p <> cof false p) points))

(* --- factoring ------------------------------------------------------------ *)

let prop_quick_factor =
  QCheck.Test.make ~count:200 ~name:"quick_factor preserves function"
    (arb_cover n_prop) (fun f ->
      let e = Logic.Factor.quick_factor f in
      List.for_all
        (fun p -> Logic.Factor.eval e p = Logic.Cover.eval f p)
        (all_points n_prop))

let prop_good_factor =
  QCheck.Test.make ~count:200 ~name:"good_factor preserves function"
    (arb_cover n_prop) (fun f ->
      let e = Logic.Factor.good_factor f in
      List.for_all
        (fun p -> Logic.Factor.eval e p = Logic.Cover.eval f p)
        (all_points n_prop))

let test_factor_example () =
  (* ab + ac factors as a(b + c): 3 literals instead of 4. *)
  let f = Logic.Cover.of_strings 3 [ "11-"; "1-1" ] in
  let e = Logic.Factor.quick_factor f in
  Alcotest.(check int) "3 literals" 3 (Logic.Factor.literal_count e)

let test_divide_by_cube () =
  let f = Logic.Cover.of_strings 3 [ "11-"; "1-1"; "-01" ] in
  let c = Logic.Cube.of_string "1--" in
  let q, r = Logic.Factor.divide_by_cube f c in
  Alcotest.(check int) "quotient size" 2 (Logic.Cover.size q);
  Alcotest.(check int) "remainder size" 1 (Logic.Cover.size r)

let test_kernels () =
  (* f = ab + ac: kernel b + c with co-kernel a. *)
  let f = Logic.Cover.of_strings 3 [ "11-"; "1-1" ] in
  let ks = Logic.Factor.kernels f in
  let expected = Logic.Cover.of_strings 3 [ "-1-"; "--1" ] in
  Alcotest.(check bool) "kernel found" true
    (List.exists (fun (_, k) -> Logic.Cover.equivalent k expected) ks)

let prop_divide_reconstruct =
  QCheck.Test.make ~count:200 ~name:"f = c*q + r after cube division"
    (QCheck.make
       QCheck.Gen.(pair (gen_cover n_prop) (gen_cube n_prop)))
    (fun (f, c) ->
      let q, r = Logic.Factor.divide_by_cube f c in
      let cq =
        Logic.Cover.intersect (Logic.Cover.make n_prop [ c ]) q
      in
      let rebuilt = Logic.Cover.union cq r in
      same_function n_prop f rebuilt)

let () =
  let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests) in
  Alcotest.run "logic"
    [ ( "cube",
        [ Alcotest.test_case "string roundtrip" `Quick test_cube_string;
          Alcotest.test_case "containment" `Quick test_cube_contains;
          Alcotest.test_case "intersection" `Quick test_cube_intersect;
          Alcotest.test_case "distance/consensus" `Quick
            test_cube_distance_consensus;
          Alcotest.test_case "supercube" `Quick test_cube_supercube;
          Alcotest.test_case "cofactor" `Quick test_cube_cofactor ] );
      ( "cover",
        [ Alcotest.test_case "tautology" `Quick test_cover_tautology;
          Alcotest.test_case "complement xor" `Quick test_cover_complement_xor;
          Alcotest.test_case "sharp" `Quick test_cover_sharp;
          Alcotest.test_case "covers" `Quick test_cover_covers;
          Alcotest.test_case "single cube containment" `Quick test_cover_scc;
          Alcotest.test_case "support" `Quick test_cover_support;
          Alcotest.test_case "rename" `Quick test_cover_rename ] );
      qsuite "cover-props"
        [ prop_complement; prop_sharp; prop_tautology; prop_covers;
          prop_containment_word_boundary; prop_intersect ];
      ( "minimize",
        [ Alcotest.test_case "merge adjacent" `Quick test_minimize_simple;
          Alcotest.test_case "absorb dc" `Quick test_minimize_with_dc;
          Alcotest.test_case "xor dc collapses to literal" `Quick
            test_minimize_xor_dc;
          Alcotest.test_case "dense path at word boundaries" `Quick
            test_dense_boundaries;
          Alcotest.test_case "dense path on a bbara cone" `Quick
            test_dense_bbara_cone ] );
      qsuite "minimize-props"
        [ prop_minimize_preserves; prop_minimize_within_dc;
          prop_minimize_no_growth; prop_exact_preserves;
          prop_heuristic_close_to_exact; prop_minimize_irredundant;
          prop_minimize_prime; prop_reduce_matches_reference;
          prop_dense_matches_cover ];
      qsuite "algebra-props" [ prop_kernels_divide; prop_supercube_contains ];
      ( "truthtab",
        [ Alcotest.test_case "roundtrip" `Quick test_tt_roundtrip;
          Alcotest.test_case "bit ops" `Quick test_tt_ops;
          Alcotest.test_case "cofactor" `Quick test_tt_cofactor ] );
      qsuite "truthtab-props" [ prop_truthtab_layout ];
      ( "factor",
        [ Alcotest.test_case "ab+ac" `Quick test_factor_example;
          Alcotest.test_case "divide by cube" `Quick test_divide_by_cube;
          Alcotest.test_case "kernels" `Quick test_kernels ] );
      qsuite "factor-props"
        [ prop_quick_factor; prop_good_factor; prop_divide_reconstruct ] ]
