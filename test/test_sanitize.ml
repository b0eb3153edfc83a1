(* Dynamic concurrency sanitizer.

   The mutation tests seed one concurrency-protocol violation each — an
   inverted lock order, an unstamped DLS cache entry, a BDD scope used off
   its domain, a double-claimed / foreign-completed future — and assert
   that exactly the intended rule id fires.  The qcheck property drives
   the checker with thousands of random *legal* event interleavings and
   asserts it never reports (no false positives).  The integration test
   runs real scheduler + per-domain BDD work under the sanitizer.  The
   static lint is tested in test_typedlint.ml. *)

module S = Sanitize
module P = Core.Parallel

(* Each test runs with the sanitizer armed and leaves it disarmed and
   clean, so test order never matters. *)
let sanitized f =
  S.reset ();
  S.enable ();
  Fun.protect
    ~finally:(fun () ->
      S.disable ();
      S.reset ())
    f

let rule_ids () = List.map (fun f -> f.S.rule_id) (S.findings ())

let check_rules msg expected =
  Alcotest.(check (list string)) msg expected (rule_ids ())

(* --- mutation: inverted lock order --------------------------------------------- *)

let test_lock_cycle_single_domain () =
  sanitized (fun () ->
      let a = S.Lock.create ~order:1 ~name:"test.a" in
      let b = S.Lock.create ~order:2 ~name:"test.b" in
      (* consistent nesting a -> b: legal *)
      S.Lock.lock a;
      S.Lock.lock b;
      S.Lock.unlock b;
      S.Lock.unlock a;
      check_rules "consistent order is clean" [];
      (* mutation: nest b -> a, closing the cycle *)
      S.Lock.lock b;
      S.Lock.lock a;
      S.Lock.unlock a;
      S.Lock.unlock b;
      check_rules "inverted order" [ "lock/cycle" ];
      match S.findings () with
      | [ f ] ->
        Alcotest.(check (list string))
          "cycle names both locks" [ "test.a"; "test.b" ] f.S.sites;
        Alcotest.(check bool)
          "message carries acquisition backtraces" true
          (String.length f.S.message > 0)
      | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs))

let test_lock_cycle_across_domains () =
  sanitized (fun () ->
      let a = S.Lock.create ~order:1 ~name:"dom.a" in
      let b = S.Lock.create ~order:2 ~name:"dom.b" in
      (* domain 1 nests a -> b and fully releases before domain 0 runs, so
         the schedule itself cannot deadlock — only the *order* is bad *)
      Domain.join
        (Domain.spawn (fun () ->
             S.Lock.lock a;
             S.Lock.lock b;
             S.Lock.unlock b;
             S.Lock.unlock a));
      S.Lock.lock b;
      S.Lock.lock a;
      S.Lock.unlock a;
      S.Lock.unlock b;
      check_rules "cross-domain inverted order" [ "lock/cycle" ])

let test_try_lock_participates () =
  sanitized (fun () ->
      let a = S.Lock.create ~order:1 ~name:"try.a" in
      let b = S.Lock.create ~order:2 ~name:"try.b" in
      S.Lock.lock a;
      Alcotest.(check bool) "try_lock succeeds" true (S.Lock.try_lock b);
      S.Lock.unlock b;
      S.Lock.unlock a;
      Alcotest.(check bool) "try_lock succeeds" true (S.Lock.try_lock b);
      S.Lock.lock a;
      S.Lock.unlock a;
      S.Lock.unlock b;
      check_rules "try_lock edges close the cycle too" [ "lock/cycle" ])

(* --- mutation: future claim discipline ----------------------------------------- *)

let test_future_double_claim () =
  sanitized (fun () ->
      let f1 = S.Future.fresh () in
      S.Future.claimed_by ~fut:f1 ~domain:1;
      S.Future.completed_by ~fut:f1 ~domain:1;
      check_rules "single claim + own completion is clean" [];
      let f2 = S.Future.fresh () in
      S.Future.claimed_by ~fut:f2 ~domain:1;
      S.Future.claimed_by ~fut:f2 ~domain:2;
      check_rules "second Pending->Running claim" [ "future/double-claim" ])

let test_future_foreign_done () =
  sanitized (fun () ->
      let f1 = S.Future.fresh () in
      S.Future.claimed_by ~fut:f1 ~domain:1;
      S.Future.completed_by ~fut:f1 ~domain:2;
      check_rules "completion by non-claimant" [ "future/foreign-done" ];
      S.reset ();
      let f2 = S.Future.fresh () in
      S.Future.completed_by ~fut:f2 ~domain:1;
      check_rules "completion without any claim" [ "future/foreign-done" ])

(* --- mutation: unstamped DLS cache --------------------------------------------- *)

let test_dls_cross_scope () =
  sanitized (fun () ->
      S.Dls.cache_hit ~entry_uid:41 ~scope_uid:41;
      check_rules "matching stamp is clean" [];
      (* mutation: an entry stamped by scope 41 serving scope 42 models a
         cache that skipped the scope-stamp check *)
      S.Dls.cache_hit ~entry_uid:41 ~scope_uid:42;
      check_rules "unstamped cache hit" [ "dls/cross-scope-hit" ])

(* --- mutation: BDD scope used off its domain ----------------------------------- *)

let test_dls_foreign_scope () =
  sanitized (fun () ->
      let man = Bdd.create () in
      let x = Bdd.var man 0 in
      ignore (Bdd.band man x (Bdd.var man 1));
      check_rules "owner-domain use is clean" [];
      (* mutation: a second domain builds through the main domain's scope.
         The main domain waits in [join], so the table itself is not raced;
         only the ownership break is observed. *)
      Domain.join (Domain.spawn (fun () -> ignore (Bdd.var man 2)));
      check_rules "scope used from a second domain" [ "dls/foreign-scope" ])

(* --- reporting ------------------------------------------------------------------ *)

let test_findings_deduped_and_rendered () =
  sanitized (fun () ->
      for _ = 1 to 100 do
        S.Dls.cache_hit ~entry_uid:1 ~scope_uid:2
      done;
      Alcotest.(check int)
        "hot loop reports once" 1
        (List.length (S.findings ()));
      let txt = S.render (S.findings ()) in
      Alcotest.(check bool)
        "text render carries rule id" true
        (String.length txt > 0
        &&
        let re = "error[dls/cross-scope-hit]" in
        String.length txt >= String.length re
        && String.sub txt 0 (String.length re) = re);
      let js = S.render_json (S.findings ()) in
      Alcotest.(check bool)
        "json render is an array" true
        (js.[0] = '[' && js.[String.length js - 1] = ']'))

let test_render_json_empty () =
  sanitized (fun () ->
      Alcotest.(check string) "empty array" "[\n]" (S.render_json []))

let test_disabled_is_silent () =
  S.reset ();
  S.disable ();
  S.Dls.cache_hit ~entry_uid:1 ~scope_uid:2;
  S.Dls.scope_used ~scope_table:1 ~domain_table:2;
  Alcotest.(check int) "no events recorded when disabled" 0
    (List.length (S.findings ()))

(* --- qcheck: random legal interleavings never report ---------------------------- *)

(* A legal history over [n] BDD scopes, [k] locks and [m] futures:
   - per scope, cache hits and uses stamped with its own uid and table;
   - locks always nested in ascending creation order;
   - each future claimed then completed by one domain.
   Events of different objects interleave arbitrarily (driven by the
   qcheck-generated pick sequence): the checker must stay silent. *)
let run_legal_history ~table picks =
  let n_scopes = 6 and n_locks = 3 and n_futs = 4 in
  let locks =
    Array.init n_locks (fun i ->
        S.Lock.create ~order:i ~name:(Printf.sprintf "q.%d.%d" table i))
  in
  let futs = Array.init n_futs (fun _ -> S.Future.fresh ()) in
  (* remaining per-object scripts, each consumed front-first *)
  let scope_script uid =
    [ (fun () -> S.Dls.scope_used ~scope_table:table ~domain_table:table);
      (fun () -> S.Dls.cache_hit ~entry_uid:uid ~scope_uid:uid);
      (fun () -> S.Dls.scope_used ~scope_table:table ~domain_table:table);
      (fun () -> S.Dls.cache_hit ~entry_uid:uid ~scope_uid:uid) ]
  in
  let lock_script i =
    (* nest everything from i upward, in ascending order; acquire and
       release in one event so interleaved scripts never re-lock a mutex
       this same thread already holds *)
    let ups = Array.to_list (Array.sub locks i (n_locks - i)) in
    [ (fun () ->
        List.iter S.Lock.lock ups;
        List.iter S.Lock.unlock (List.rev ups)) ]
  in
  let fut_script i =
    [ (fun () -> S.Future.claimed_by ~fut:futs.(i) ~domain:(i mod 3));
      (fun () -> S.Future.completed_by ~fut:futs.(i) ~domain:(i mod 3)) ]
  in
  let scripts =
    Array.of_list
      (List.init n_scopes (fun i -> ref (scope_script (i + 2)))
      @ List.init n_locks (fun i -> ref (lock_script i))
      @ List.init n_futs (fun i -> ref (fut_script i)))
  in
  let total = Array.fold_left (fun a s -> a + List.length !s) 0 scripts in
  let picks = ref picks in
  let next_pick () =
    match !picks with
    | [] -> 0
    | p :: rest ->
      picks := rest;
      p
  in
  for _ = 1 to total do
    (* pick the next non-empty script round-robin from a random start *)
    let start = abs (next_pick ()) mod Array.length scripts in
    let rec go k =
      if k < Array.length scripts then begin
        let s = scripts.((start + k) mod Array.length scripts) in
        match !s with
        | [] -> go (k + 1)
        | ev :: rest ->
          s := rest;
          ev ()
      end
    in
    go 0
  done

let qcheck_no_false_positives =
  QCheck.Test.make ~count:200 ~name:"legal interleavings are clean"
    QCheck.(list_of_size (Gen.int_range 20 60) small_int)
    (fun picks ->
      S.reset ();
      S.enable ();
      Fun.protect
        ~finally:(fun () ->
          S.disable ();
          S.reset ())
        (fun () ->
          (* distinct lock names per run *)
          run_legal_history ~table:(1000 + Hashtbl.hash picks mod 1000) picks;
          S.findings () = []))

(* --- integration: real scheduler + per-domain BDD work under the sanitizer ------- *)

let test_real_flow_clean () =
  sanitized (fun () ->
      let results =
        P.map ~jobs:4
          (fun seed ->
            let man = Bdd.create () in
            let x = Bdd.var man (seed mod 5)
            and y = Bdd.var man ((seed + 1) mod 5)
            and z = Bdd.var man ((seed + 2) mod 5) in
            let f = Bdd.bor man (Bdd.band man x y) (Bdd.bxor man y z) in
            let g = Bdd.exists man [ seed mod 5 ] f in
            let h = Bdd.ite man f g (Bdd.bnot man z) in
            (* re-run the same ops so ITE / exists caches actually hit *)
            let g' = Bdd.exists man [ seed mod 5 ] f in
            assert (Bdd.equal g g');
            Bdd.node_count man + if Bdd.is_false h then 1 else 0)
          (Array.init 32 (fun i -> i))
      in
      Alcotest.(check int) "all rows ran" 32 (Array.length results);
      check_rules "instrumented sched+bdd run is clean" [])

let () =
  Alcotest.run "sanitize"
    [ ( "mutations",
        [ Alcotest.test_case "lock cycle (one domain)" `Quick
            test_lock_cycle_single_domain;
          Alcotest.test_case "lock cycle (two domains)" `Quick
            test_lock_cycle_across_domains;
          Alcotest.test_case "try_lock edges" `Quick test_try_lock_participates;
          Alcotest.test_case "future double claim" `Quick
            test_future_double_claim;
          Alcotest.test_case "future foreign done" `Quick
            test_future_foreign_done;
          Alcotest.test_case "dls cross scope" `Quick test_dls_cross_scope;
          Alcotest.test_case "dls foreign scope" `Quick
            test_dls_foreign_scope ] );
      ( "reporting",
        [ Alcotest.test_case "dedup + render" `Quick
            test_findings_deduped_and_rendered;
          Alcotest.test_case "empty json" `Quick test_render_json_empty;
          Alcotest.test_case "disabled is silent" `Quick
            test_disabled_is_silent ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest qcheck_no_false_positives ] );
      ( "integration",
        [ Alcotest.test_case "sched+bdd under sanitizer" `Quick
            test_real_flow_clean ] )
    ]
