(* The static lint (Typedlint, driven by bin/lint).

   Each mutation test compiles a small self-contained source to a .cmt
   (ocamlc -bin-annot in a temp dir) with a stub [Core.Parallel] whose
   paths match the real scheduler re-export, seeds exactly one violation
   — a forked thunk capturing a naked ref, a Condition.wait inside a task
   body, an entry-reachable module-level Hashtbl, an unsorted
   Hashtbl.iter, a wall-clock read — and asserts the intended rule id
   fires.  Control twins route the same state through Atomic /
   Mutex.protect / a lock that owns it / a sort and must scan clean.  The
   qcheck property generates random *pure* closures, forks them at jobs
   1/2/4, and asserts the analyzer never reports (no false positives).
   Waiver tests cover the justified-waiver contract (trailing, standalone,
   unjustified, unknown, stale, file-level) and which lines count as code
   when a standalone waiver is placed. *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* compile [src] as mutant.ml in a fresh temp dir; return (dir, cmt path) *)
let compile src =
  let dir = Filename.temp_dir "typedlint_test" "" in
  let ml = Filename.concat dir "mutant.ml" in
  let oc = open_out ml in
  output_string oc src;
  close_out oc;
  let rc =
    Sys.command
      (Printf.sprintf
         "cd %s && ocamlc -c -bin-annot -w -a -I +unix mutant.ml 2>mutant.err"
         (Filename.quote dir))
  in
  if rc <> 0 then
    Alcotest.failf "mutant failed to compile (rc %d):\n%s\n--- source ---\n%s"
      rc
      (read_file (Filename.concat dir "mutant.err"))
      src;
  (dir, Filename.concat dir "mutant.cmt")

let scan ?entry_points ?waivers ?(sources = [ "mutant.ml" ]) src =
  let dir, cmt = compile src in
  let config =
    { Typedlint.default_config with
      source_root = dir;
      entry_points =
        (match entry_points with
         | Some eps -> eps
         | None -> Typedlint.default_config.entry_points) }
  in
  Typedlint.scan_cmt_files ~config ?waivers ~sources [ cmt ]

let rules r =
  List.sort_uniq compare
    (List.map (fun f -> f.Lint_common.rule_id) r.Typedlint.findings)

let check_rules msg expected r =
  Alcotest.(check (list string)) msg expected (rules r)

(* a fork/join stub whose dotted paths match the real Core.Parallel
   re-export, so mutants stay hermetic from the repo libraries *)
let stub =
  "module Core = struct\n\
  \  module Parallel = struct\n\
  \    let fork f = f\n\
  \    let join t = t ()\n\
  \    let map f a = Array.map f a\n\
  \    let map_list f l = List.map f l\n\
  \    let run ~jobs:_ f = f ()\n\
  \  end\n\
   end\n"

(* --- capture / escape ------------------------------------------------------ *)

let test_capture_naked_ref () =
  let r =
    scan
      (stub
     ^ "let leak () =\n\
       \  let counter = ref 0 in\n\
       \  let t = Core.Parallel.fork (fun () -> incr counter) in\n\
       \  Core.Parallel.join t;\n\
       \  !counter\n")
  in
  check_rules "captured naked ref is caught" [ "typed/capture-escape" ] r;
  Alcotest.(check bool)
    "fired tally records the rule" true
    (List.mem_assoc "typed/capture-escape" r.Typedlint.rules_fired)

let test_capture_hashtbl_in_map () =
  let r =
    scan
      (stub
     ^ "let tally xs =\n\
       \  let seen = Hashtbl.create 16 in\n\
       \  Core.Parallel.map_list (fun x -> Hashtbl.replace seen x (); x) xs\n")
  in
  check_rules "captured Hashtbl in map_list thunk"
    [ "typed/capture-escape" ] r

let test_capture_field_write () =
  let r =
    scan
      (stub
     ^ "type cell = { mutable n : int }\n\
        let bump c =\n\
       \  let t = Core.Parallel.fork (fun () -> c.n <- c.n + 1) in\n\
       \  Core.Parallel.join t\n")
  in
  Alcotest.(check bool)
    "mutable field write of captured value is caught" true
    (List.mem "typed/capture-escape" (rules r))

let test_capture_controls_clean () =
  (* pure closure *)
  check_rules "pure closure" []
    (scan
       (stub
      ^ "let go () =\n\
        \  let t = Core.Parallel.fork (fun () -> 1 + 2) in\n\
        \  Core.Parallel.join t\n"));
  (* Atomic-routed counter *)
  check_rules "Atomic counter" []
    (scan
       (stub
      ^ "let go () =\n\
        \  let c = Atomic.make 0 in\n\
        \  let t = Core.Parallel.fork (fun () -> Atomic.incr c) in\n\
        \  Core.Parallel.join t;\n\
        \  Atomic.get c\n"));
  (* Mutex.protect-guarded section inside the thunk *)
  check_rules "Mutex.protect-guarded capture" []
    (scan
       (stub
      ^ "let go () =\n\
        \  let m = Mutex.create () in\n\
        \  let acc = ref 0 in\n\
        \  let t =\n\
        \    Core.Parallel.fork (fun () -> Mutex.protect m (fun () -> incr \
         acc))\n\
        \  in\n\
        \  Core.Parallel.join t\n"))

(* --- module-level escape --------------------------------------------------- *)

let test_module_escape_global_hashtbl () =
  let src =
    stub
    ^ "let cache : (int, int) Hashtbl.t = Hashtbl.create 16\n\
       let main () = Hashtbl.replace cache 1 2\n"
  in
  let r = scan ~entry_points:[ "Mutant.main" ] src in
  check_rules "entry-reachable global Hashtbl" [ "typed/module-escape" ] r;
  Alcotest.(check bool)
    "finding names the global" true
    (match r.Typedlint.findings with
     | f :: _ -> String.length f.Lint_common.message > 0
     | [] -> false);
  (* same unit, no entry point: unreachable state is not reported *)
  check_rules "unreachable unit stays quiet" [] (scan src)

(* a stub whose type path matches the real [Obs.Locked] *)
let locked_stub =
  "module Obs = struct\n\
  \  module Locked = struct\n\
  \    type 'a t = { m : Mutex.t; v : 'a }\n\
  \    let create v = { m = Mutex.create (); v }\n\
  \    let use t f = Mutex.protect t.m (fun () -> f t.v)\n\
  \    let await t f = use t (fun v -> Option.get (f v))\n\
  \  end\n\
   end\n"

let test_module_escape_mutex_guarded () =
  (* a lock beside the state does not sanction it: only a lock that owns
     its value makes an unlocked access fail to compile *)
  check_rules "Mutex-guarded global is reported" [ "typed/module-escape" ]
    (scan ~entry_points:[ "Mutant.main" ]
       (stub
      ^ "let gm = Mutex.create ()\n\
         let cache : (int, int) Hashtbl.t = Hashtbl.create 16\n\
         let main () =\n\
        \  Mutex.lock gm;\n\
        \  Hashtbl.replace cache 1 2;\n\
        \  Mutex.unlock gm\n"))

let test_module_escape_guarded_clean () =
  check_rules "lock-owned global is sanctioned" []
    (scan ~entry_points:[ "Mutant.main" ]
       (stub ^ locked_stub
      ^ "let cache : (int, int) Hashtbl.t Obs.Locked.t =\n\
        \  Obs.Locked.create (Hashtbl.create 16)\n\
         let main () = Obs.Locked.use cache (fun c -> Hashtbl.replace c 1 2)\n"));
  check_rules "Atomic global is sanctioned" []
    (scan ~entry_points:[ "Mutant.main" ]
       (stub
      ^ "let total = Atomic.make 0\n\
         let main () = Atomic.incr total\n"));
  check_rules "DLS-keyed state is sanctioned" []
    (scan ~entry_points:[ "Mutant.main" ]
       (stub
      ^ "let buf = Domain.DLS.new_key (fun () -> Buffer.create 64)\n\
         let main () = Buffer.add_char (Domain.DLS.get buf) 'x'\n"))

(* --- blocking call in a task body ------------------------------------------ *)

let test_blocking_condition_wait () =
  let r =
    scan
      (stub
     ^ "let m = Mutex.create ()\n\
        let cv = Condition.create ()\n\
        let go () =\n\
       \  let t =\n\
       \    Core.Parallel.fork (fun () ->\n\
       \        Mutex.lock m;\n\
       \        Condition.wait cv m;\n\
       \        Mutex.unlock m)\n\
       \  in\n\
       \  Core.Parallel.join t\n")
  in
  Alcotest.(check bool)
    "Condition.wait in a task is caught" true
    (List.mem "typed/blocking-in-task" (rules r));
  Alcotest.(check bool)
    "the message names the blocking call" true
    (List.exists
       (fun f ->
         f.Lint_common.rule_id = "typed/blocking-in-task"
         && String.length f.Lint_common.message > 0)
       r.Typedlint.findings)

let test_blocking_locked_await () =
  check_rules "Obs.Locked.await in a task is caught"
    [ "typed/blocking-in-task" ]
    (scan
       (stub ^ locked_stub
      ^ "let q : int Queue.t Obs.Locked.t =\n\
        \  Obs.Locked.create (Queue.create ())\n\
         let go () =\n\
        \  let t =\n\
        \    Core.Parallel.fork (fun () -> Obs.Locked.await q Queue.take_opt)\n\
        \  in\n\
        \  Core.Parallel.join t\n"))

let test_blocking_through_helper () =
  let r =
    scan
      (stub
     ^ "let helper () = ignore (read_line ())\n\
        let go () =\n\
       \  let t = Core.Parallel.fork (fun () -> helper ()) in\n\
       \  Core.Parallel.join t\n")
  in
  check_rules "blocking reached through a same-unit helper"
    [ "typed/blocking-in-task" ] r

let test_blocking_outside_task_clean () =
  (* blocking calls outside fork bodies are legitimate *)
  check_rules "blocking outside tasks is fine" []
    (scan
       (stub
      ^ "let m = Mutex.create ()\n\
         let go () = Mutex.lock m; Mutex.unlock m\n"))

(* --- waiver discipline -------------------------------------------------------------- *)

let capture_mutant_with mark =
  stub
  ^ "let leak () =\n\
    \  let counter = ref 0 in\n\
    \  let t = Core.Parallel.fork (fun () -> incr counter" ^ mark
  ^ ") in\n\
    \  Core.Parallel.join t\n"

let test_waiver_trailing_honored () =
  let r =
    scan
      (capture_mutant_with
         " (* lint-waive: typed/capture-escape -- test fixture: counter \
          is joined before any read *)")
  in
  check_rules "trailing waiver suppresses" [] r;
  Alcotest.(check bool) "honored tally counts it" true
    (r.Typedlint.waivers_honored > 0)

let test_waiver_stale () =
  let r =
    scan
      (stub
     ^ "(* lint-waive: typed/capture-escape -- leftover justification \
        kept after the fix landed *)\n\
        let pure () = 1 + 2\n")
  in
  check_rules "stale typed waiver is itself a finding"
    [ "lint/waiver-unused" ] r

let test_waiver_file_level () =
  let waivers =
    "typed/capture-escape mutant.ml fixture: suppressed at file scope for \
     the test\n"
  in
  let r = scan ~waivers (capture_mutant_with "") in
  check_rules "file-level waiver suppresses (and counts as used)" [] r;
  Alcotest.(check bool) "suppression counted" true
    (r.Typedlint.waivers_honored > 0)

(* --- name rules ---------------------------------------------------------------------- *)

let test_lint_rules_fire () =
  let cases =
    [ ("let f t = Hashtbl.iter (fun _ _ -> ()) t\n", [ "nondet/hashtbl-order" ]);
      ("let f t = Hashtbl.to_seq_keys t\n", [ "nondet/hashtbl-order" ]);
      ("let t0 () = Unix.gettimeofday ()\n", [ "nondet/wall-clock" ]);
      ("let x () = Random.int 5\n", [ "nondet/ambient-random" ]);
      ("let d () = (Domain.self () :> int)\n", [ "nondet/domain-id" ]);
      ("let k v = Obj.repr v\n", [ "mm/physical-eq-key" ]);
      ( "let mem t k = Hashtbl.mem t (List.find (fun x -> x == k) [ k ])\n",
        [ "mm/physical-eq-key" ] ) ]
  in
  List.iter (fun (src, expected) -> check_rules src expected (scan src)) cases;
  (* the site is the identifier's line, the line a waiver covers *)
  let r =
    scan
      "let n t =\n\
      \  List.length\n\
      \    (Hashtbl.fold (fun k _ acc -> k :: acc) t [])\n"
  in
  Alcotest.(check (list (list string)))
    "site on the identifier's line" [ [ "mutant.ml:3" ] ]
    (List.map (fun f -> f.Lint_common.sites) r.Typedlint.findings)

let test_lint_exemptions () =
  let clean =
    [ (* seeded random state is deterministic *)
      "let st = Random.State.make [| 7 |]\n";
      (* sorted on the spot: normalized *)
      "let xs t = List.sort compare (Hashtbl.fold (fun k _ a -> k :: a) t [])\n";
      "let xs t = Hashtbl.fold (fun k _ a -> k :: a) t [] |> List.sort compare\n";
      "let xs t = List.sort_uniq compare @@ Hashtbl.fold (fun k _ a -> k :: a) t []\n";
      "let _ = Hashtbl.length (Hashtbl.create 1)\n";
      (* allocation alone is no rule: typed/module-escape judges real
         reachability instead *)
      "let cache : (int, int) Hashtbl.t = Hashtbl.create 64\n\
       let lock = Mutex.create ()\n" ]
  in
  List.iter (fun src -> check_rules src [] (scan src)) clean

(* rules that need resolved paths: an alias is the same function, and a
   local binding that shares the name is not *)
let test_lint_typed_resolution () =
  check_rules "Hashtbl.fold through a let-module alias"
    [ "nondet/hashtbl-order" ]
    (scan
       "let keys t =\n\
       \  let module H = Hashtbl in\n\
       \  H.fold (fun k _ acc -> k :: acc) t []\n");
  check_rules "gettimeofday through open" [ "nondet/wall-clock" ]
    (scan "open Unix\nlet t () = gettimeofday ()\n");
  check_rules "local gettimeofday shadow" []
    (scan "let gettimeofday () = 0.\nlet t () = gettimeofday ()\n");
  check_rules "local Unix module shadow" []
    (scan
       "module Unix = struct let gettimeofday () = 0. end\n\
        let t () = Unix.gettimeofday ()\n")

(* --- code lines ------------------------------------------------------------------------ *)

let marker =
  "(* lint-waive: nondet/wall-clock — fixture for the code-line test *)"

(* the lines the one waiver in [src] covers: a standalone marker reaches
   down to the first line on which a token starts *)
let covers src =
  match fst (Lint_common.line_waivers ~path:"mutant.ml" src) with
  | [ w ] -> w.Lint_common.lw_covers
  | ws -> Alcotest.failf "expected one waiver, found %d" (List.length ws)

let test_lint_code_lines () =
  let cases =
    [ (* comments, nested or spanning lines, hold no code *)
      ( marker ^ "\n(* Unix.gettimeofday is mentioned here *)\nlet x = 1\n",
        [ 1; 2; 3 ] );
      ( marker
        ^ "\n(* outer (* Obj.magic nested *) still comment *)\nlet x = 1\n",
        [ 1; 2; 3 ] );
      ( marker ^ "\n(* comment spanning\n   Hashtbl.iter lines *)\nlet x = 1\n",
        [ 1; 2; 3; 4 ] );
      (marker ^ "\n(** Obj.magic in a docstring *)\nlet x = 1\n", [ 1; 2; 3 ]);
      (* quoted strings and strings inside comments balance like the
         compiler's lexer: a close-comment token inside them does not end
         the comment *)
      ( marker ^ "\n(* {x| *) Obj.magic |x} still a comment *)\nlet x = 1\n",
        [ 1; 2; 3 ] );
      ( marker ^ "\n(* {| *) Obj.magic |} still a comment *)\nlet x = 1\n",
        [ 1; 2; 3 ] );
      ( marker ^ "\n(* \"a *) string\" still a comment *)\nlet x = 1\n",
        [ 1; 2; 3 ] );
      (* a char-literal quote inside a comment opens no string *)
      (marker ^ "\n(* '\"' *)\nlet () = Hashtbl.iter f t\n", [ 1; 2; 3 ]);
      (marker ^ "\n(* '\\\"' *)\nlet () = Hashtbl.iter f t\n", [ 1; 2; 3 ]);
      (* a char literal and a string literal on their own line are code *)
      ( marker ^ "\nlet c = '\"' and y = Random.State.make_self_init\n",
        [ 1; 2 ] );
      (marker ^ "\n  \"Hashtbl.iter in a string literal\"\n", [ 1; 2 ]);
      (* the inside of a string that spans lines is not code *)
      ( "let q = {ext|Obj.magic \" unclosed\n" ^ marker
        ^ "\nstill quoted |ext}\nlet y = 2\n",
        [ 2; 3; 4 ] );
      ("let q = {|Domain.self\n" ^ marker ^ "\n|}\nlet y = 2\n", [ 2; 3; 4 ]);
      ( "let s = \"a \\\" Hashtbl.iter\n" ^ marker
        ^ "\nf t \\\" b\"\nlet y = 2\n",
        [ 2; 3; 4 ] ) ]
  in
  List.iter
    (fun (src, expected) ->
      Alcotest.(check (list int)) src expected (covers src))
    cases;
  (* a marker sharing its line with code covers exactly that line *)
  Alcotest.(check (list int)) "trailing marker" [ 2 ]
    (covers ("(* lead *)\nlet x = 1 " ^ marker ^ "\nlet y = 2\n"))

(* --- waivers on the name rules -------------------------------------------------------- *)

let iter_site = "let f t = Hashtbl.iter (fun _ _ -> ()) t"

let test_lint_waivers_in_source () =
  let r =
    scan
      (iter_site
     ^ " (* lint-waive: nondet/hashtbl-order — commutative accumulation, \
        honest *)\n")
  in
  check_rules "trailing waiver" [] r;
  Alcotest.(check int) "one waived site" 1 r.Typedlint.waivers_honored;
  check_rules "standalone waiver reaches past its comment" []
    (scan
       ("(* lint-waive: nondet/hashtbl-order — the justification wraps over \
         this\n   second comment line before the site below. *)\n"
      ^ iter_site ^ "\n"));
  Alcotest.(check bool)
    "waiver without justification is a finding" true
    (List.mem "lint/waiver-unjustified"
       (rules
          (scan ("(* lint-waive: nondet/hashtbl-order *)\n" ^ iter_site ^ "\n"))));
  check_rules "unknown rule id" [ "lint/waiver-unknown-rule" ]
    (scan
       "(* lint-waive: nondet/no-such-rule — plausible words but a bogus id *)\n\
        let x = 1\n");
  check_rules "stale in-source waiver" [ "lint/waiver-unused" ]
    (scan
       "(* lint-waive: nondet/hashtbl-order — nothing below still needs this *)\n\
        let x = 1\n")

let test_lint_file_waivers () =
  let body =
    "# comment\n\
     nondet/hashtbl-order mutant.ml grouped results are order-canonical \
     downstream\n\
     short x y\n"
  in
  let waivers, probs = Lint_common.parse_waivers body in
  Alcotest.(check int) "one parsed waiver" 1 (List.length waivers);
  Alcotest.(check int) "one malformed line reported" 1 (List.length probs);
  let r = scan ~waivers:body (iter_site ^ "\n") in
  check_rules "file waiver suppresses; the malformed line is reported"
    [ "lint/waiver-unjustified" ] r;
  Alcotest.(check int) "suppression counted" 1 r.Typedlint.waivers_honored;
  check_rules "a file waiver for another file is stale"
    [ "lint/waiver-unused" ]
    (scan
       ~waivers:
         "nondet/hashtbl-order other/y.ml grouped results are \
          order-canonical downstream\n"
       "let x = 1\n");
  check_rules "a file waiver naming no rule" [ "lint/waiver-unknown-rule" ]
    (scan ~waivers:"nondet/bogus mutant.ml plausible words, bogus id\n"
       "let x = 1\n")

(* The repo's LINT_WAIVERS must parse clean and name only rules the lint
   can still evaluate — an entry for a retired rule is dead weight.
   Staleness proper (an entry that suppresses nothing) is enforced by the
   `dune runtest` lint gate, which scans the real tree.  The file is found
   next to the build's test directory (where the test stanza's dependency
   copies it), whatever the working directory. *)
let test_lint_waivers_audit () =
  let build_root = Filename.dirname (Filename.dirname Sys.executable_name) in
  let waivers, probs =
    Lint_common.parse_waivers
      (read_file (Filename.concat build_root "LINT_WAIVERS"))
  in
  Alcotest.(check (list string))
    "LINT_WAIVERS parses without findings" []
    (List.map (fun f -> f.Lint_common.rule_id) probs);
  List.iter
    (fun w ->
      Alcotest.(check bool)
        (Printf.sprintf "rule %s is a lint rule" w.Lint_common.w_rule)
        true
        (List.mem w.Lint_common.w_rule Typedlint.rule_ids);
      Alcotest.(check bool)
        (Printf.sprintf "justification for %s is substantial"
           w.Lint_common.w_rule)
        true
        (String.length w.Lint_common.w_reason >= Lint_common.min_reason_len))
    waivers

(* --- coverage: no source is skipped silently ------------------------------------------ *)

let test_lint_unscanned_source () =
  let dir, cmt = compile (iter_site ^ "\n") in
  (* truncate the .cmt: it can no longer be read *)
  let bytes = read_file cmt in
  let oc = open_out_bin cmt in
  output_string oc (String.sub bytes 0 200);
  close_out oc;
  let config = { Typedlint.default_config with source_root = dir } in
  let r = Typedlint.scan_cmt_files ~config ~sources:[ "mutant.ml" ] [ cmt ] in
  Alcotest.(check int) "nothing loaded" 0 r.Typedlint.files_scanned;
  Alcotest.(check (list (pair string (list string))))
    "unreadable .cmt leaves its source reported"
    [ ("lint/unscanned-source", [ "mutant.ml" ]) ]
    (List.map
       (fun f -> (f.Lint_common.rule_id, f.Lint_common.sites))
       r.Typedlint.findings);
  check_rules "a source with no .cmt at all" [ "lint/unscanned-source" ]
    (scan ~sources:[ "mutant.ml"; "other.ml" ] "let x = 1\n")

(* --- property: no false positives on pure closures --------------------------------- *)

(* random pure expressions: ints, + and *, let-bound locals, list folds *)
let gen_pure_expr =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           if n <= 0 then map string_of_int (int_range 0 99)
           else
             frequency
               [ (1, map string_of_int (int_range 0 99));
                 ( 2,
                   map2
                     (fun a b -> Printf.sprintf "(%s + %s)" a b)
                     (self (n / 2)) (self (n / 2)) );
                 ( 2,
                   map2
                     (fun a b -> Printf.sprintf "(%s * %s)" a b)
                     (self (n / 2)) (self (n / 2)) );
                 ( 1,
                   map2
                     (fun a b ->
                       Printf.sprintf "(let x = %s in x + %s)" a b)
                     (self (n / 2)) (self (n / 2)) );
                 ( 1,
                   map
                     (fun a ->
                       Printf.sprintf
                         "(List.fold_left ( + ) 0 [ %s; 1; 2 ])" a)
                     (self (n / 2)) ) ]))

let arb_pure_expr =
  QCheck.make ~print:(fun s -> s) (QCheck.Gen.map (fun s -> s) gen_pure_expr)

let qcheck_pure_closures_clean =
  QCheck.Test.make ~count:12 ~name:"typedlint: pure forked closures scan clean"
    arb_pure_expr (fun body ->
      List.for_all
        (fun jobs ->
          let src =
            stub
            ^ Printf.sprintf
                "let main () =\n\
                \  Core.Parallel.run ~jobs:%d (fun () ->\n\
                \      let t = Core.Parallel.fork (fun () -> %s) in\n\
                \      let a = Core.Parallel.map (fun i -> i + %s) [| 1; 2 \
                 |] in\n\
                \      Core.Parallel.join t + a.(0))\n"
                jobs body body
          in
          rules (scan ~entry_points:[ "Mutant.main" ] src) = [])
        [ 1; 2; 4 ])

(* --- reporting ---------------------------------------------------------------------- *)

(* bin/lint prints these bytes and CI parses the JSON, so both shapes are
   pinned exactly. *)
let test_render () =
  let fs =
    [ { Lint_common.rule_id = "typed/capture-escape";
        sites = [ "lib/a.ml:3"; "lib/a.ml:9" ];
        message = "m1" };
      { Lint_common.rule_id = "nondet/wall-clock";
        sites = [ "bin/b.ml:1" ];
        message = "say \"hi\"" } ]
  in
  Alcotest.(check string) "text"
    "error[typed/capture-escape] sites lib/a.ml:3,lib/a.ml:9: m1\n\
     error[nondet/wall-clock] sites bin/b.ml:1: say \"hi\""
    (Lint_common.render fs);
  Alcotest.(check string) "json"
    "[\n\
    \  {\"rule_id\":\"typed/capture-escape\",\"severity\":\"error\",\
     \"sites\":[\"lib/a.ml:3\",\"lib/a.ml:9\"],\"message\":\"m1\"},\n\
    \  {\"rule_id\":\"nondet/wall-clock\",\"severity\":\"error\",\
     \"sites\":[\"bin/b.ml:1\"],\"message\":\"say \\\"hi\\\"\"}\n\
     ]"
    (Obs.Json.layout (Lint_common.to_json fs))

let test_render_json_empty () =
  Alcotest.(check string) "empty array" "[]"
    (Obs.Json.layout (Lint_common.to_json []))

(* --- plumbing ----------------------------------------------------------------------- *)

let test_rule_ids_and_stats () =
  Alcotest.(check (list string))
    "rule inventory"
    [ "mm/physical-eq-key"; "nondet/ambient-random"; "nondet/domain-id";
      "nondet/hashtbl-order"; "nondet/wall-clock"; "typed/blocking-in-task";
      "typed/capture-escape"; "typed/module-escape" ]
    Typedlint.rule_ids;
  let r = scan (capture_mutant_with "") in
  Alcotest.(check int) "one unit scanned" 1 r.Typedlint.files_scanned;
  Obs.Metrics.enable ();
  Obs.Metrics.reset ();
  Typedlint.publish_stats r;
  Alcotest.(check (float 0.0))
    "files_scanned gauge" 1.0
    (Obs.Metrics.gauge_value (Obs.Metrics.gauge "typedlint.files_scanned"));
  Alcotest.(check bool) "findings gauge set" true
    (Obs.Metrics.gauge_value (Obs.Metrics.gauge "typedlint.findings") >= 1.0);
  Obs.Metrics.disable ()

let () =
  Alcotest.run "typedlint"
    [ ( "capture-escape",
        [ Alcotest.test_case "naked ref" `Quick test_capture_naked_ref;
          Alcotest.test_case "hashtbl in map_list" `Quick
            test_capture_hashtbl_in_map;
          Alcotest.test_case "field write" `Quick test_capture_field_write;
          Alcotest.test_case "controls clean" `Quick
            test_capture_controls_clean ] );
      ( "module-escape",
        [ Alcotest.test_case "global hashtbl" `Quick
            test_module_escape_global_hashtbl;
          Alcotest.test_case "guarded clean" `Quick
            test_module_escape_guarded_clean;
          Alcotest.test_case "mutex-guarded global" `Quick
            test_module_escape_mutex_guarded ] );
      ( "blocking-in-task",
        [ Alcotest.test_case "condition wait" `Quick
            test_blocking_condition_wait;
          Alcotest.test_case "locked await" `Quick test_blocking_locked_await;
          Alcotest.test_case "through helper" `Quick
            test_blocking_through_helper;
          Alcotest.test_case "outside task clean" `Quick
            test_blocking_outside_task_clean ] );
      ( "waivers",
        [ Alcotest.test_case "trailing honored" `Quick
            test_waiver_trailing_honored;
          Alcotest.test_case "stale" `Quick test_waiver_stale;
          Alcotest.test_case "file level" `Quick test_waiver_file_level ] );
      ( "lint",
        [ Alcotest.test_case "rules fire" `Quick test_lint_rules_fire;
          Alcotest.test_case "exemptions" `Quick test_lint_exemptions;
          Alcotest.test_case "typed resolution" `Quick
            test_lint_typed_resolution;
          Alcotest.test_case "stripping" `Quick test_lint_code_lines;
          Alcotest.test_case "in-source waivers" `Quick
            test_lint_waivers_in_source;
          Alcotest.test_case "file waivers" `Quick test_lint_file_waivers;
          Alcotest.test_case "repo waiver audit" `Quick
            test_lint_waivers_audit;
          Alcotest.test_case "unscanned source" `Quick
            test_lint_unscanned_source ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest qcheck_pure_closures_clean ] );
      ( "reporting",
        [ Alcotest.test_case "render" `Quick test_render;
          Alcotest.test_case "empty json" `Quick test_render_json_empty ] );
      ( "plumbing",
        [ Alcotest.test_case "rule ids + metrics" `Quick
            test_rule_ids_and_stats ] )
    ]
