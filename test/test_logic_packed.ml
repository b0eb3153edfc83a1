(* Differential tests: every packed {!Logic.Cube} operation against the
   legacy array reference {!Cube_ref}, on random cubes across widths
   1-200 with extra weight on the packing boundaries (31 variables per word:
   30/31/32, 61/62/63/64/65, 93/94).  Cover operations are checked at wide
   widths by evaluating on sampled points, where enumeration is impossible.

   The widest widths (>= 93 variables, i.e. 4+ packed words) dominate the
   run time of the differential suite for no extra packing-boundary
   coverage beyond the three-word case; they run only when the QCHECK_LONG
   environment variable is set to a non-empty value other than "0". *)

module C = Logic.Cube
module R = Cube_ref

(* --- generators --------------------------------------------------------- *)

let long_run =
  match Sys.getenv_opt "QCHECK_LONG" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let boundary_widths =
  let base = [ 1; 2; 30; 31; 32; 33; 61; 62; 63; 64; 65 ] in
  if long_run then base @ [ 93; 94; 127; 128; 200 ] else base

let width_cap = if long_run then 200 else 65

let gen_width =
  QCheck.Gen.(
    frequency [ (3, oneofl boundary_widths); (2, int_range 1 width_cap) ])

let gen_lit =
  QCheck.Gen.(
    frequency
      [ (1, return C.Zero); (1, return C.One); (2, return C.Both) ])

let gen_lits n = QCheck.Gen.(array_size (return n) gen_lit)

(* a pair of same-width literal arrays (the reference representation) *)
let gen_pair = QCheck.Gen.(gen_width >>= fun n -> pair (gen_lits n) (gen_lits n))

let print_pair (a, b) =
  Printf.sprintf "%s / %s" (R.to_string a) (R.to_string b)

let arb_pair = QCheck.make ~print:print_pair gen_pair

let arb_single =
  QCheck.make ~print:R.to_string QCheck.Gen.(gen_width >>= gen_lits)

let diff name prop = QCheck.Test.make ~count:500 ~name prop

let lits_opt = function None -> None | Some c -> Some (C.to_lits c)

(* --- cube ops ----------------------------------------------------------- *)

let prop_roundtrip =
  diff "of_lits/to_lits/of_string/to_string roundtrip" arb_single (fun a ->
      let p = C.of_lits a in
      C.to_lits p = a
      && C.to_string p = R.to_string a
      && C.equal (C.of_string (R.to_string a)) p
      && C.nvars p = Array.length a)

let prop_unary =
  diff "lit_count/is_minterm/get/depends_on agree" arb_single (fun a ->
      let p = C.of_lits a in
      C.lit_count p = R.lit_count a
      && C.is_minterm p = R.is_minterm a
      && Array.for_all
           (fun v -> C.get p v = a.(v) && C.depends_on p v = R.depends_on a v)
           (Array.init (Array.length a) Fun.id))

let prop_iteri =
  diff "iteri visits every variable in order" arb_single (fun a ->
      let seen = ref [] in
      C.iteri (fun i l -> seen := (i, l) :: !seen) (C.of_lits a);
      List.rev !seen = Array.to_list (Array.mapi (fun i l -> (i, l)) a))

let prop_equal_compare =
  diff "equal/compare match the legacy array order" arb_pair (fun (a, b) ->
      let pa = C.of_lits a and pb = C.of_lits b in
      C.equal pa pb = (a = b)
      && Stdlib.compare (C.compare pa pb) 0
         = Stdlib.compare (R.compare a b) 0)

let prop_contains =
  diff "contains agrees" arb_pair (fun (a, b) ->
      let pa = C.of_lits a and pb = C.of_lits b in
      C.contains pa pb = R.contains a b
      && C.contains pa pa
      && C.contains (C.universe (Array.length a)) pa)

let prop_signature_prefilter =
  diff "signature prefilter is sound for containment" arb_pair (fun (a, b) ->
      let pa = C.of_lits a and pb = C.of_lits b in
      (not (C.contains pa pb))
      || C.signature pb land lnot (C.signature pa) = 0)

let prop_intersect =
  diff "intersect/intersects agree" arb_pair (fun (a, b) ->
      let pa = C.of_lits a and pb = C.of_lits b in
      lits_opt (C.intersect pa pb) = R.intersect a b
      && C.intersects pa pb = R.intersects a b)

let prop_distance_consensus =
  diff "distance/consensus agree" arb_pair (fun (a, b) ->
      let pa = C.of_lits a and pb = C.of_lits b in
      C.distance pa pb = R.distance a b
      && lits_opt (C.consensus pa pb) = R.consensus a b)

let prop_supercube =
  diff "supercube agrees" arb_pair (fun (a, b) ->
      C.to_lits (C.supercube (C.of_lits a) (C.of_lits b)) = R.supercube a b)

let prop_cofactor =
  diff "cofactor agrees on every variable/phase" arb_single (fun a ->
      let p = C.of_lits a in
      let ok v =
        lits_opt (C.cofactor p v C.Zero) = R.cofactor a v C.Zero
        && lits_opt (C.cofactor p v C.One) = R.cofactor a v C.One
      in
      Array.for_all ok (Array.init (Array.length a) Fun.id))

let prop_cube_cofactor =
  diff "cube_cofactor agrees" arb_pair (fun (a, b) ->
      lits_opt (C.cube_cofactor (C.of_lits a) (C.of_lits b))
      = R.cube_cofactor a b)

let prop_eval_minterm =
  diff "eval and minterm agree" arb_single (fun a ->
      let n = Array.length a in
      let st = Random.State.make [| Hashtbl.hash a |] in
      let point = Array.init n (fun _ -> Random.State.bool st) in
      let p = C.of_lits a in
      C.eval p point = R.eval a point
      && C.to_lits (C.minterm n point) = R.minterm n point
      && C.eval (C.minterm n point) point)

let prop_mutation =
  diff "set/copy/raise_var/set_var agree" arb_single (fun a ->
      let n = Array.length a in
      let st = Random.State.make [| Hashtbl.hash a; 17 |] in
      let v = Random.State.int st n in
      let l = [| C.Zero; C.One; C.Both |].(Random.State.int st 3) in
      (* in-place set on copies must not disturb the originals *)
      let p = C.of_lits a in
      let pc = C.copy p and ac = R.copy a in
      C.set pc v l;
      R.set ac v l;
      C.to_lits pc = ac
      && C.to_lits p = a
      && C.to_lits (C.raise_var p v) = R.raise_var a v
      && C.to_lits (C.set_var p v l) = R.set_var a v l)

(* --- cover ops at wide widths (sampled points) --------------------------- *)

let gen_wide_cover =
  QCheck.Gen.(
    oneofl (if long_run then [ 62; 63; 64; 65; 100; 200 ] else [ 62; 63; 64; 65 ])
    >>= fun n ->
    (* mostly-Both cubes so random points have a chance to hit the cover *)
    let sparse_lit =
      frequency [ (1, return C.Zero); (1, return C.One); (10, return C.Both) ]
    in
    list_size (int_range 1 8) (array_size (return n) sparse_lit)
    >|= fun cubes -> (n, cubes))

let arb_wide_cover =
  QCheck.make
    ~print:(fun (n, cubes) ->
      Printf.sprintf "n=%d [%s]" n
        (String.concat "; " (List.map R.to_string cubes)))
    gen_wide_cover

let cover_of (n, cubes) = Logic.Cover.make n (List.map C.of_lits cubes)

let sample_points n seed k =
  let st = Random.State.make [| seed; n |] in
  List.init k (fun _ -> Array.init n (fun _ -> Random.State.bool st))

let prop_cover_wide_semantics =
  QCheck.Test.make ~count:100 ~name:"wide-cover ops are pointwise correct"
    arb_wide_cover (fun ((n, _) as input) ->
      let f = cover_of input in
      let fc = Logic.Cover.complement f in
      let scc = Logic.Cover.single_cube_containment f in
      let d = Logic.Cover.sharp f scc in
      List.for_all
        (fun pt ->
          (* each cube of f lands points inside it; use them too *)
          Logic.Cover.eval fc pt = not (Logic.Cover.eval f pt)
          && Logic.Cover.eval scc pt = Logic.Cover.eval f pt
          && not (Logic.Cover.eval d pt))
        (sample_points n (Hashtbl.hash input) 64
        @ List.filter_map
            (fun c ->
              let pt =
                Array.init n (fun v ->
                    match C.get c v with
                    | C.One -> true
                    | C.Zero | C.Both -> false)
              in
              if C.eval c pt then Some pt else None)
            f.Logic.Cover.cubes))

let prop_cover_wide_union_intersect =
  QCheck.Test.make ~count:100 ~name:"wide union/intersect are pointwise and/or"
    (QCheck.pair arb_wide_cover arb_wide_cover)
    (fun (((n1, _) as i1), (n2, cubes2)) ->
      (* rebuild the second input over the first input's width *)
      let resize c =
        Array.init n1 (fun v -> if v < Array.length c then c.(v) else C.Both)
      in
      let f = cover_of i1 and g = cover_of (n1, List.map resize cubes2) in
      ignore n2;
      let u = Logic.Cover.union f g and x = Logic.Cover.intersect f g in
      List.for_all
        (fun pt ->
          Logic.Cover.eval u pt
          = (Logic.Cover.eval f pt || Logic.Cover.eval g pt)
          && Logic.Cover.eval x pt
             = (Logic.Cover.eval f pt && Logic.Cover.eval g pt))
        (sample_points n1 (Hashtbl.hash (i1, cubes2)) 64))

let prop_cover_covers_cube =
  QCheck.Test.make ~count:100 ~name:"wide covers_cube agrees with sharp"
    arb_wide_cover (fun ((n, _) as input) ->
      match cover_of input with
      | { Logic.Cover.cubes = []; _ } -> true
      | { Logic.Cover.cubes = c :: _; _ } as f ->
        let by_sharp =
          Logic.Cover.is_empty
            (Logic.Cover.sharp (Logic.Cover.make n [ c ]) f)
        in
        Logic.Cover.covers_cube f c = by_sharp && Logic.Cover.covers_cube f c)

(* --- minimize on packed covers stays a cover of the same function -------- *)

let prop_minimize_wide =
  QCheck.Test.make ~count:40 ~name:"minimize preserves wide functions"
    arb_wide_cover (fun ((n, _) as input) ->
      let f = cover_of input in
      let m = Logic.Minimize.minimize f in
      List.for_all
        (fun pt -> Logic.Cover.eval m pt = Logic.Cover.eval f pt)
        (sample_points n (Hashtbl.hash input) 64))

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "logic_packed"
    [ ("cube-differential",
       q
         [ prop_roundtrip; prop_unary; prop_iteri; prop_equal_compare;
           prop_contains; prop_signature_prefilter; prop_intersect;
           prop_distance_consensus; prop_supercube; prop_cofactor;
           prop_cube_cofactor; prop_eval_minterm; prop_mutation ]);
      ("cover-wide",
       q
         [ prop_cover_wide_semantics; prop_cover_wide_union_intersect;
           prop_cover_covers_cube; prop_minimize_wide ]) ]
