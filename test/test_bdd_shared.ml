(* Per-domain BDD table tests: differential agreement between a warm table
   and a cold one in a fresh domain, scope accounting (node_count
   independence from table warmth and from interleaved scopes), agreement
   and canonicity of two domains building concurrently, and the
   owner-domain check on every scope. *)

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

(* [xor_chain ~rev] builds the same function, XOR of v(i) AND v(i+1) over
   0..n-2 quantified over v(0), as a list of steps on an accumulator, in
   forward or reverse order. *)
let xor_chain ~rev man =
  let n = 10 in
  let v = Array.init n (Bdd.var man) in
  let idx = List.init (n - 1) Fun.id in
  List.map
    (fun i acc -> Bdd.bxor man acc (Bdd.band man v.(i) v.(i + 1)))
    (if rev then List.rev idx else idx)
  @ [ (fun acc -> Bdd.exists man [ 0 ] acc) ]

(* Two root scopes on one table take turns, one step each, so the ITE
   probes of one land on slots the other just wrote.  Each must still report
   exactly the node count a freshly spawned domain reports for its own op
   sequence, and both must reach the same handle. *)
let test_interleaved_root_scopes () =
  let run steps = List.fold_left (fun acc step -> step acc) Bdd.bfalse steps in
  let fresh ~rev =
    Domain.join
      (Domain.spawn (fun () ->
           let man = Bdd.create () in
           ignore (run (xor_chain ~rev man) : Bdd.t);
           Bdd.node_count man))
  in
  List.iter
    (fun rev_b ->
      let a = Bdd.create () and b = Bdd.create () in
      let fa, fb =
        List.fold_left2
          (fun (fa, fb) step_a step_b ->
            let fa = step_a fa in
            (fa, step_b fb))
          (Bdd.bfalse, Bdd.bfalse) (xor_chain ~rev:false a)
          (xor_chain ~rev:rev_b b)
      in
      Alcotest.(check bool) "same function, same handle" true (Bdd.equal fa fb);
      Alcotest.(check int) "first scope's count is a fresh domain's"
        (fresh ~rev:false) (Bdd.node_count a);
      Alcotest.(check int) "second scope's count is a fresh domain's"
        (fresh ~rev:rev_b) (Bdd.node_count b))
    [ false; true ]

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

(* A scope belongs to the domain that opened it: building through it, or
   reading a handle through it, from a second domain raises
   [Invalid_argument].  The main domain waits in [join], so the table itself
   is not raced; only the ownership break is exercised. *)
let test_foreign_domain_raises () =
  let man = Bdd.create () in
  let x = Bdd.var man 0 in
  let f = Bdd.band man x (Bdd.var man 1) in
  let raises op =
    Domain.join
      (Domain.spawn (fun () ->
           match op () with
           | _ -> false
           | exception Invalid_argument _ -> true))
  in
  Alcotest.(check bool) "var from a second domain" true
    (raises (fun () -> Bdd.var man 2));
  Alcotest.(check bool) "ite from a second domain" true
    (raises (fun () -> Bdd.bor man f x));
  Alcotest.(check bool) "size from a second domain" true
    (raises (fun () -> Bdd.size man f));
  Alcotest.(check bool) "owner domain still builds" true
    (Bdd.equal (Bdd.bor man f x) x)

(* Scheduler tasks each open their own scope on whichever domain runs
   them: the ownership check never fires, and the results match jobs=1. *)
let test_sched_bdd_ownership () =
  let row seed =
    let man = Bdd.create () in
    let x = Bdd.var man (seed mod 5)
    and y = Bdd.var man ((seed + 1) mod 5)
    and z = Bdd.var man ((seed + 2) mod 5) in
    let f = Bdd.bor man (Bdd.band man x y) (Bdd.bxor man y z) in
    let g = Bdd.exists man [ seed mod 5 ] f in
    let h = Bdd.ite man f g (Bdd.bnot man z) in
    (* the same ops again, so the ITE and exists caches hit *)
    let g' = Bdd.exists man [ seed mod 5 ] f in
    assert (Bdd.equal g g');
    Bdd.node_count man + if Bdd.is_false h then 1 else 0
  in
  let items = Array.init 32 (fun i -> i) in
  Alcotest.(check (array int)) "jobs=4 matches jobs=1"
    (Core.Parallel.map ~jobs:1 row items)
    (Core.Parallel.map ~jobs:4 row items)

let () =
  Alcotest.run "bdd_shared"
    [ ("differential",
       [ QCheck_alcotest.to_alcotest prop_shared_matches_private ]);
      ("scopes",
       [ Alcotest.test_case "warm-table parity" `Quick test_warm_table_parity;
         Alcotest.test_case "interleaved root scopes" `Quick
           test_interleaved_root_scopes ]);
      ("parallel",
       [ Alcotest.test_case "two-domain stress" `Quick test_two_domain_stress;
         Alcotest.test_case "foreign domain raises" `Quick
           test_foreign_domain_raises;
         Alcotest.test_case "sched+bdd under the ownership check" `Quick
           test_sched_bdd_ownership ]) ]
