(* Per-domain BDD table tests: differential agreement between a warm table
   and a cold one in a fresh domain, scope accounting (sub_scope / adopt /
   node_count warmth independence), agreement and canonicity of two domains
   building concurrently, and the eqcheck cone memo that rides on the
   domain's table. *)

let all_points n =
  List.init (1 lsl n) (fun i -> Array.init n (fun v -> i land (1 lsl v) <> 0))

let gen_cover n =
  QCheck.Gen.(
    list_size (int_range 0 6)
      (array_repeat n (oneofl [ Logic.Cube.Zero; Logic.Cube.One; Logic.Cube.Both ])
       >|= Logic.Cube.of_lits)
    >|= fun cubes -> Logic.Cover.make n cubes)

let n_prop = 5

(* [f] over BDD variables [0..nvars-1] *)
let of_cover man f =
  Bdd.of_cover man (Array.init f.Logic.Cover.nvars (Bdd.var man)) f

let arb_cover_pair =
  QCheck.make QCheck.Gen.(pair (gen_cover n_prop) (gen_cover n_prop))

let cover_string c = Format.asprintf "%a" Logic.Cover.pp c

(* The same op sequence through a scope on the (warm) main-domain table and
   through a scope in a freshly spawned domain, whose table starts cold, must
   agree on semantics (pointwise eval), on the extracted cover, and on node
   accounting — [node_count] of a warm scope is defined as what a fresh
   manager reports.  Handles are only meaningful on the domain that built
   them, so each side renders its own observations. *)
let prop_shared_matches_private =
  QCheck.Test.make ~count:150
    ~name:"shared scope = private manager (eval, cover, node_count)"
    arb_cover_pair
    (fun (f, g) ->
      let observe () =
        let man = Bdd.create () in
        let bf = of_cover man f and bg = of_cover man g in
        let h =
          Bdd.bxor man (Bdd.band man bf bg)
            (Bdd.exists man [ 0; 2 ] (Bdd.bor man bf bg))
        in
        ( List.map (fun p -> Bdd.eval man h (fun v -> p.(v))) (all_points n_prop),
          cover_string (Bdd.to_cover man ~nvars:n_prop h),
          Bdd.node_count man )
      in
      let warm = observe () in
      let cold = Domain.join (Domain.spawn observe) in
      warm = cold)

(* Two scopes on the same table interning the same function get the same
   handle, and the second (warm) scope still reports the cold node count. *)
let test_warm_table_parity () =
  let build man =
    let v = Array.init 8 (Bdd.var man) in
    let f = ref v.(0) in
    for i = 1 to 7 do
      f := Bdd.bxor man !f (Bdd.band man v.(i) v.(i - 1))
    done;
    !f
  in
  let a = Bdd.create () in
  let ha = build a in
  let b = Bdd.create () in
  let hb = build b in
  Alcotest.(check bool) "same handle" true (Bdd.equal ha hb);
  Alcotest.(check int) "warm scope charges the cold count"
    (Bdd.node_count a) (Bdd.node_count b)

(* sub_scope charges the parent cumulatively; adopt replays one scope's
   charges into another. *)
let test_sub_scope_and_adopt () =
  let parent = Bdd.create () in
  let before = Bdd.node_count parent in
  let child = Bdd.sub_scope parent in
  let v = Array.init 6 (Bdd.var child) in
  let f = Array.fold_left (Bdd.band child) Bdd.btrue v in
  ignore f;
  let charged = Bdd.node_count child - 2 (* terminals *) in
  Alcotest.(check bool) "child consed something" true (charged > 0);
  Alcotest.(check int) "parent charged cumulatively"
    (before + charged) (Bdd.node_count parent);
  (* an unrelated scope adopting the child inherits exactly its charges *)
  let other = Bdd.create () in
  Bdd.adopt other child;
  Alcotest.(check int) "adopt replays the charge"
    (Bdd.node_count child) (Bdd.node_count other)

(* Two domains build the same family of functions, each in its own table.
   They must agree on eval, cover and node_count, and each table must stay
   canonical: a second scope rebuilding the family on the now-warm table
   gets the very same handles, and an equal function built by a different
   op sequence gets the same handle too. *)
let test_two_domain_stress () =
  let nvars = 12 in
  let build man seed =
    let v = Array.init nvars (Bdd.var man) in
    let f = ref v.(seed mod nvars) in
    for i = 0 to 200 do
      let a = v.((i + seed) mod nvars)
      and b = v.((i * 7 + seed) mod nvars) in
      f := Bdd.bxor man !f (Bdd.band man a (Bdd.bor man b !f))
    done;
    !f
  in
  let points =
    let rng = Random.State.make [| 17 |] in
    List.init 256 (fun _ -> Array.init nvars (fun _ -> Random.State.bool rng))
  in
  let work () =
    Array.init 24 (fun seed ->
        let man = Bdd.create () in
        let h = build man seed in
        let again = Bdd.create () in
        let h' = build again seed in
        (* xor via De Morgan: same function, different op sequence *)
        let x = Bdd.var again 0 and y = Bdd.var again 1 in
        let direct = Bdd.bxor again x y in
        let demorgan =
          Bdd.band again (Bdd.bor again x y)
            (Bdd.bnot again (Bdd.band again x y))
        in
        ( Bdd.equal h h' && Bdd.equal direct demorgan,
          List.map (fun p -> Bdd.eval man h (fun i -> p.(i))) points,
          cover_string (Bdd.to_cover man ~nvars h),
          Bdd.node_count man ))
  in
  let tables0 = (Bdd.stats ()).Bdd.tables_created in
  let d1 = Domain.spawn work and d2 = Domain.spawn work in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  Array.iteri
    (fun i (canonical, _, _, _) ->
      Alcotest.(check bool) (Printf.sprintf "domain 1 canonical (%d)" i) true
        canonical)
    r1;
  Array.iteri
    (fun i (canonical, _, _, _) ->
      Alcotest.(check bool) (Printf.sprintf "domain 2 canonical (%d)" i) true
        canonical)
    r2;
  Alcotest.(check bool) "domains agree on eval, cover and node_count" true
    (r1 = r2);
  Alcotest.(check bool) "each domain built its own table" true
    ((Bdd.stats ()).Bdd.tables_created - tables0 >= 2)

(* The eqcheck cone memo keeps the previous boundary check's post-side BDDs
   alive on the domain's table and reuses them as the next check's pre side.
   On a real flow it must fire at least once and must not change verdicts. *)
let test_eqcheck_memo_reuse () =
  Obs.Metrics.enable ();
  let reuse = Obs.Metrics.counter "eqcheck.memo.hit" in
  let before = Obs.Metrics.counter_value reuse in
  let rows =
    Report.Table.run_suite ~verify:false ~eqcheck_each:true ~names:[ "s27" ] ()
  in
  let proved, refuted, _unknown =
    Eqcheck.counts (Report.Table.eqcheck_records rows)
  in
  Alcotest.(check bool) "memo reused at least once" true
    (Obs.Metrics.counter_value reuse - before >= 1);
  Alcotest.(check bool) "verdicts proved" true (proved > 0);
  Alcotest.(check int) "no refuted verdicts" 0 refuted

let () =
  Alcotest.run "bdd_shared"
    [ ("differential",
       [ QCheck_alcotest.to_alcotest prop_shared_matches_private ]);
      ("scopes",
       [ Alcotest.test_case "warm-table parity" `Quick test_warm_table_parity;
         Alcotest.test_case "sub_scope and adopt" `Quick
           test_sub_scope_and_adopt ]);
      ("parallel",
       [ Alcotest.test_case "two-domain stress" `Quick test_two_domain_stress ]);
      ("eqcheck-memo",
       [ Alcotest.test_case "memo reuse on s27" `Quick test_eqcheck_memo_reuse ])
    ]
