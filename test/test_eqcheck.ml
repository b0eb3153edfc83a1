(* Semantic equivalence analyzer tests.

   Clean pairs are Proved, each seeded semantic mutation is Refuted with a
   simulation-confirmed counterexample (replayed again here, independently of
   the engine, per the counterexample-quality requirement), budget caps yield
   explicit Unknown, and the flow integration reports zero Refuted on a real
   suite circuit. *)

module N = Netlist.Network
module M = Retiming.Moves
module E = Eqcheck
module R = Dontcare.Reach
module Mono = Oracle.Monolithic

let buf = Logic.Cover.of_strings 1 [ "1" ]
let inv = Logic.Cover.of_strings 1 [ "0" ]
let and2 = Logic.Cover.of_strings 2 [ "11" ]
let or2 = Logic.Cover.of_strings 2 [ "1-"; "-1" ]

let check_verdict msg expected v =
  Alcotest.(check string) msg expected (E.verdict_name v)

let get_cex = function
  | E.Refuted c -> c
  | E.Proved -> Alcotest.fail "expected Refuted, got Proved"
  | E.Simulated why -> Alcotest.fail ("expected Refuted, got Simulated: " ^ why)
  | E.Unknown why -> Alcotest.fail ("expected Refuted, got Unknown: " ^ why)

(* Independent replay of a sequential counterexample: drive both nets with the
   reported input trace from the reported initial states and require the
   primary outputs to diverge at some cycle. *)
let replay_diverges pre post (c : E.cex) =
  let state_of net inits =
    List.filter_map
      (fun (name, v) ->
        match N.find_by_name net name with
        | Some n -> Some (n.N.id, v)
        | None -> None)
      inits
  in
  let outs o = List.sort compare o in
  let rec go sa sb = function
    | [] -> false
    | vec :: rest ->
      let pi name = match List.assoc_opt name vec with Some v -> v | None -> false in
      let sa', oa = Sim.Simulate.step pre ~pi ~state:sa in
      let sb', ob = Sim.Simulate.step post ~pi ~state:sb in
      outs oa <> outs ob || go sa' sb' rest
  in
  go (state_of pre c.E.init_pre) (state_of post c.E.init_post) c.E.trace

(* Two sibling latches of the same data input: genuinely equivalent, so
   [o = r1 AND r2] may be rewritten to [o = r1] — but only modulo DC_ret. *)
let sibling_pair () =
  let pre = N.create ~name:"sib" () in
  let a = N.add_input pre "a" in
  let r1 = N.add_latch pre ~name:"r1" N.I0 a in
  let r2 = N.add_latch pre ~name:"r2" N.I0 a in
  let o = N.add_logic pre ~name:"o" and2 [ r1; r2 ] in
  N.set_output pre "o" o;
  let post = N.copy pre in
  let o' = Option.get (N.find_by_name post "o") in
  N.set_function post o' buf [ Option.get (N.find_by_name post "r1") ];
  (pre, post, [ r1.N.id; r2.N.id ])

let test_comb_identical () =
  let pre, _, _ = sibling_pair () in
  check_verdict "identical nets" "proved" (E.comb_check pre (N.copy pre))

let test_comb_dcret_dontcare () =
  let pre, post, cls = sibling_pair () in
  check_verdict "proved modulo DC_ret" "proved"
    (E.comb_check ~classes:[ cls ] pre post)

let test_comb_refutes_without_dc () =
  let pre, post, _ = sibling_pair () in
  let c = get_cex (E.comb_check pre post) in
  Alcotest.(check bool) "comb cex confirmed" true c.E.sim_confirmed;
  (* replay the leaf assignment through both cone evaluators ourselves *)
  let pi name =
    match List.assoc_opt name c.E.leaves with Some v -> v | None -> false
  in
  Alcotest.(check bool) "endpoints really differ" true
    (Sim.Equiv.eval_endpoints pre pi <> Sim.Equiv.eval_endpoints post pi)

(* The pair above is sequentially equivalent (r1 = r2 in every reachable
   state), so the escalation must land on Proved even without the classes:
   a combinational difference alone is never reported as Refuted. *)
let test_escalation_soundness () =
  let pre, post, _ = sibling_pair () in
  let recs =
    E.check_pass ~label:"t" ~pass:"rewrite" ~classes:[] pre post
  in
  let r = List.hd recs in
  Alcotest.(check string) "escalated" "eq-pass/seq" r.E.rule;
  check_verdict "sequentially proved" "proved" r.E.verdict

(* Mutation 1: forward-retime across an inverter, then corrupt the new
   latch's initial value.  The very first cycle diverges. *)
let test_mutation_wrong_retimed_init () =
  let pre = N.create ~name:"mi" () in
  let a = N.add_input pre "a" in
  let r = N.add_latch pre ~name:"r" N.I1 a in
  let g = N.add_logic pre ~name:"g" inv [ r ] in
  N.set_output pre "o" g;
  let post = N.copy pre in
  let g' = Option.get (N.find_by_name post "g") in
  let r' =
    match M.forward_across_node post g' with
    | Ok l -> l
    | Error e -> Alcotest.fail (M.error_message e)
  in
  (* the legal move is first checked to preserve equivalence... *)
  check_verdict "correct retime proved" "proved" (E.seq_check pre post);
  (* ...then the init is flipped: inv(I1) = I0 becomes I1 *)
  N.set_latch_init post r' N.I1;
  let c = get_cex (E.seq_check pre post) in
  Alcotest.(check bool) "wrong-init cex confirmed" true c.E.sim_confirmed;
  Alcotest.(check bool) "wrong-init cex replays" true
    (replay_diverges pre post c)

(* Mutation 2: over-widened don't-care — r1 and r2 latch different inputs,
   yet the cone is simplified as if they formed a DC_ret class. *)
let over_widened () =
  let pre = N.create ~name:"ow" () in
  let a = N.add_input pre "a" and b = N.add_input pre "b" in
  let r1 = N.add_latch pre ~name:"r1" N.I0 a in
  let r2 = N.add_latch pre ~name:"r2" N.I0 b in
  let o = N.add_logic pre ~name:"o" and2 [ r1; r2 ] in
  N.set_output pre "o" o;
  let post = N.copy pre in
  let o' = Option.get (N.find_by_name post "o") in
  N.set_function post o' buf [ Option.get (N.find_by_name post "r1") ];
  (pre, post, [ r1.N.id; r2.N.id ])

let test_mutation_over_widened_dc () =
  let pre, post, cls = over_widened () in
  (* the bogus class makes the combinational check pass; the sequential
     engine refutes the rewrite... *)
  let c = get_cex (E.seq_check pre post) in
  Alcotest.(check bool) "over-widened cex confirmed" true c.E.sim_confirmed;
  Alcotest.(check bool) "over-widened cex replays" true
    (replay_diverges pre post c);
  (* ...and the dcret-invariant record exposes the class itself as a lie *)
  let recs =
    E.check_pass ~label:"t" ~pass:"dc-simplify" ~classes:[ cls ] pre post
  in
  let dc = List.find (fun r -> r.E.rule = "dcret-invariant") recs in
  let c2 = get_cex dc.E.verdict in
  Alcotest.(check bool) "class violation confirmed" true c2.E.sim_confirmed;
  Alcotest.(check bool) "names the class" true
    (String.length c2.E.endpoint >= 6
     && String.sub c2.E.endpoint 0 6 = "dcret:")

(* Mutation 3: drop a cube from a latch-data cover (OR loses its "-1" cube). *)
let test_mutation_dropped_cube () =
  let pre = N.create ~name:"dc" () in
  let a = N.add_input pre "a" and b = N.add_input pre "b" in
  let g = N.add_logic pre ~name:"g" or2 [ a; b ] in
  let r = N.add_latch pre ~name:"r" N.I0 g in
  let o = N.add_logic pre ~name:"o" buf [ r ] in
  N.set_output pre "o" o;
  let post = N.copy pre in
  let g' = Option.get (N.find_by_name post "g") in
  N.set_function post g' (Logic.Cover.of_strings 2 [ "1-" ]) [
    Option.get (N.find_by_name post "a");
    Option.get (N.find_by_name post "b") ];
  let recs = E.check_pass ~label:"t" ~pass:"simplify" ~classes:[] pre post in
  let r0 = List.hd recs in
  Alcotest.(check string) "comb diff escalated" "eq-pass/seq" r0.E.rule;
  let c = get_cex r0.E.verdict in
  Alcotest.(check bool) "dropped-cube cex confirmed" true c.E.sim_confirmed;
  Alcotest.(check bool) "dropped-cube cex replays" true
    (replay_diverges pre post c)

let test_dcret_proved () =
  let pre, _, cls = sibling_pair () in
  check_verdict "sibling class invariant" "proved"
    (E.dcret_check pre [ cls ])

let test_dcret_refuted () =
  let pre, _, cls = over_widened () in
  let c = get_cex (E.dcret_check pre [ cls ]) in
  Alcotest.(check bool) "violation confirmed" true c.E.sim_confirmed

(* Class members that agree for four cycles, then split: [r1] latches [a],
   [r2] latches [a] gated by a three-stage shift register of ones, which
   reaches its last stage after three cycles.  The first disagreeing state
   is four steps from the initial one, so the trace walk crosses several
   rings. *)
let late_split () =
  let net = N.create ~name:"late" () in
  let a = N.add_input net "a" in
  let one = N.add_const net true in
  let c0 = N.add_latch net ~name:"c0" N.I0 one in
  let c1 = N.add_latch net ~name:"c1" N.I0 c0 in
  let c2 = N.add_latch net ~name:"c2" N.I0 c1 in
  let r1 = N.add_latch net ~name:"r1" N.I0 a in
  let gated =
    N.add_logic net ~name:"gated" (Logic.Cover.of_strings 2 [ "10" ]) [ a; c2 ]
  in
  let r2 = N.add_latch net ~name:"r2" N.I0 gated in
  let o = N.add_logic net ~name:"o" and2 [ r1; r2 ] in
  N.set_output net "o" o;
  (net, [ r1.N.id; r2.N.id ])

let test_dcret_refuted_late () =
  let net, cls = late_split () in
  let c = get_cex (E.dcret_check net [ cls ]) in
  Alcotest.(check int) "trace length" 4 (List.length c.E.trace);
  Alcotest.(check string) "endpoint" "dcret:r1<>r2" c.E.endpoint;
  Alcotest.(check bool) "violation confirmed" true c.E.sim_confirmed;
  (* replay from the reported initial state: the members agree before the
     last cycle and differ after it *)
  let id name = (Option.get (N.find_by_name net name)).N.id in
  let state0 = List.map (fun (name, v) -> (id name, v)) c.E.init_pre in
  let differ state = List.assoc (id "r1") state <> List.assoc (id "r2") state in
  let final =
    List.fold_left
      (fun state vec ->
        Alcotest.(check bool) "members agree before the last cycle" false
          (differ state);
        let pi name = List.assoc name vec in
        fst (Sim.Simulate.step net ~pi ~state))
      state0 c.E.trace
  in
  Alcotest.(check bool) "members differ after the last cycle" true
    (differ final)

let test_unknown_on_caps () =
  let pre, post, cls = sibling_pair () in
  let tiny cap = { E.default_options with E.max_product_bits = cap } in
  check_verdict "seq cap" "unknown" (E.seq_check ~options:(tiny 1) pre post);
  check_verdict "dcret cap" "unknown"
    (E.dcret_check
       ~options:{ E.default_options with E.max_state_bits = 0 }
       pre [ cls ]);
  check_verdict "comb leaf cap" "unknown"
    (E.comb_check
       ~options:{ E.default_options with E.max_comb_leaves = 0 }
       pre post)

(* --- whole-result check ------------------------------------------------------- *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* [stages]-stage shift register from a new input "a"; stage [i] starts at
   [init i], and the last stage drives output "q" when [observed]. *)
let add_shift ?(init = fun _ -> N.I0) ?(observed = true) net stages =
  let a = N.add_input net "a" in
  let last =
    List.fold_left
      (fun d i -> N.add_latch net ~name:(Printf.sprintf "q%d" i) (init i) d)
      a (List.init stages Fun.id)
  in
  if observed then N.set_output net "q" last

let shift15 init =
  let net = N.create ~name:"shift15" () in
  add_shift ~init net 15;
  net

(* a one-register toggle, plus [unobserved] latches no output can see *)
let toggle ?(unobserved = 0) () =
  let net = N.create ~name:"toggle" () in
  let en = N.add_input net "en" in
  let r = N.add_latch net ~name:"r" N.I0 en in
  let next =
    N.add_logic net ~name:"next" (Logic.Cover.of_strings 2 [ "10"; "01" ])
      [ en; r ]
  in
  N.replace_fanin net r ~old_fanin:en ~new_fanin:next;
  N.set_output net "out" r;
  if unobserved > 0 then add_shift ~observed:false net unobserved;
  net

(* The same shift register written as plain [.latch d q] lines: every latch
   parses with an unknown initial value, so co-simulation cannot start. *)
let shift15_unknown_init () =
  let b = Buffer.create 512 in
  Buffer.add_string b ".model shift15\n.inputs a\n.outputs q14\n";
  for i = 0 to 14 do
    let d = if i = 0 then "a" else Printf.sprintf "q%d" (i - 1) in
    Buffer.add_string b (Printf.sprintf ".latch %s q%d\n" d i)
  done;
  Buffer.add_string b ".end\n";
  Netlist.Blif.parse_string (Buffer.contents b)

(* One row per verdict of [check_result].  Past the 28-bit cap the product
   machine gives up and binary-init pairs fall back to co-simulation; a pair
   whose unobservable latches alone push it past the cap is still proved. *)
let test_check_result () =
  let zero _ = N.I0 in
  let ix = shift15_unknown_init () in
  let cases =
    [ ("toggle", toggle (), toggle (), "proved", "");
      ("past the cap", shift15 zero, shift15 zero, "simulated",
       "state-bit cap: 30 product bits > 28");
      ("unknown inits past the cap", ix, ix, "unknown",
       "no binary initial value for co-simulation");
      ("diverging init past the cap", shift15 zero,
       shift15 (fun i -> if i = 0 then N.I1 else N.I0), "refuted", "");
      ("32 latches, 2 observable", toggle ~unobserved:15 (),
       toggle ~unobserved:15 (), "proved", "") ]
  in
  List.iter
    (fun (name, pre, post, expected, reason) ->
      let v = E.check_result pre post in
      check_verdict name expected v;
      match v with
      | E.Simulated why | E.Unknown why ->
        Alcotest.(check bool) (name ^ ": reason " ^ why) true
          (contains why reason && (expected <> "unknown" || contains why "latch q"))
      | E.Refuted c ->
        (* q0's initial 1 reaches the output after 14 shifts *)
        Alcotest.(check string) (name ^ ": endpoint") "q" c.E.endpoint;
        Alcotest.(check int) (name ^ ": diverging cycle") 15
          (List.length c.E.trace);
        Alcotest.(check bool) (name ^ ": replays") true
          (c.E.sim_confirmed && replay_diverges pre post c)
      | E.Proved -> ())
    cases

(* Full-flow integration on a real suite circuit: every pass boundary gets a
   verdict and none is Refuted. *)
let test_flow_s27 () =
  let e = Circuits.Suite.find "s27" in
  let row =
    Core.Flow.run_all ~verify:false ~eqcheck_each:true ~name:"s27"
      (e.Circuits.Suite.build ())
  in
  let proved, refuted, unknown = E.counts row.Core.Flow.eqcheck in
  Alcotest.(check bool) "has verdicts" true (proved + refuted + unknown > 0);
  Alcotest.(check int)
    (Printf.sprintf "no refuted pass (records:\n%s)"
       (E.render row.Core.Flow.eqcheck))
    0 refuted

let test_merge_legal () =
  let classes = [ [ 1; 2; 3 ]; [ 4; 5 ] ] in
  Alcotest.(check int) "within one class" 0
    (List.length (Verify.merge_legal ~equiv_classes:classes [ 1; 3 ]));
  Alcotest.(check int) "outside every class" 0
    (List.length (Verify.merge_legal ~equiv_classes:classes [ 7; 8 ]));
  let diags = Verify.merge_legal ~equiv_classes:classes [ 2; 4 ] in
  Alcotest.(check bool) "straddling classes flagged" true
    (List.exists (fun d -> d.Verify.rule_id = "retiming/merge-back") diags)

let test_render_json () =
  let pre, post, _ = sibling_pair () in
  let recs = E.check_pass ~label:"l" ~pass:"p" ~classes:[] pre post in
  let json = Obs.Json.layout (E.to_json recs) in
  Alcotest.(check bool) "json has verdict" true
    (let n = String.length json in
     let rec find i =
       i + 8 <= n && (String.sub json i 8 = "\"verdict" || find (i + 1))
     in
     find 0)

(* --- explicit-state oracle ------------------------------------------------- *)

(* Copy of [net] with one cube dropped from one multi-cube logic node,
   chosen by [k]; a plain copy when no node has two cubes. *)
let drop_cube net k =
  let m = N.copy net in
  (match
     List.filter
       (fun n -> List.length (N.cover_of n).Logic.Cover.cubes >= 2)
       (N.logic_nodes m)
   with
   | [] -> ()
   | multi ->
     let n = List.nth multi (k mod List.length multi) in
     let cover = N.cover_of n in
     let cubes = cover.Logic.Cover.cubes in
     let i = k / List.length multi mod List.length cubes in
     N.set_cover m n
       (Logic.Cover.make cover.Logic.Cover.nvars
          (List.filteri (fun j _ -> j <> i) cubes)));
  m

(* All [n]-bit states, as bool lists. *)
let rec all_states n =
  if n = 0 then [ [] ]
  else
    List.concat_map (fun s -> [ false :: s; true :: s ]) (all_states (n - 1))

(* The BDD engine against breadth-first search over [Sim.Simulate.step] on
   random netlists: the reachable set of [Reach.unreachable_states], and
   [seq_check] against a single-cube-drop mutant (Proved exactly when no
   reachable product state diverges; a Refuted trace as long as the
   shortest diverging run). *)
let prop_engine_matches_explicit_oracle =
  QCheck.Test.make ~count:100
    ~name:"BDD reachability matches explicit-state BFS"
    QCheck.(quad (int_range 0 10_000) (int_range 1 6) (int_range 1 3)
              (int_range 0 60))
    (fun (seed, nlatch, npi, k) ->
      let net =
        Circuits.Generators.random_sequential ~seed
          { Circuits.Generators.default_profile with
            nlatch;
            npi;
            ngates = 4 + (seed mod 9) }
      in
      let reachable = Oracle.reachable_states net in
      let r = Dontcare.Reach.unreachable_states net in
      let reach_ok =
        r.Dontcare.Reach.num_reachable = float_of_int (List.length reachable)
        && List.for_all
             (fun s ->
               let pt = Array.of_list s in
               let expected = List.mem_assoc s reachable in
               Logic.Cover.eval r.Dontcare.Reach.reachable pt = expected
               && Logic.Cover.eval r.Dontcare.Reach.unreachable pt
                  = not expected)
             (all_states nlatch)
      in
      let mutant = drop_cube net k in
      let seq_ok =
        match (E.seq_check net mutant, Oracle.first_divergence net mutant) with
        | E.Proved, None -> true
        | E.Refuted c, Some cycles ->
          c.E.sim_confirmed && List.length c.E.trace = cycles
        | (E.Proved | E.Refuted _ | E.Simulated _ | E.Unknown _), _ -> false
      in
      reach_ok && seq_ok)

(* The partitioned image against the monolithic relation it replaced
   ([Oracle.Monolithic]), on random netlists alone (bad: one full state) and
   as two-part product machines with a single-cube-drop mutant (bad: some
   output differs): the same reached set, or for a hit the same steps, start
   and witness.  Each net gets [Ix] latches (the bits of [k]), a constant
   next-state function and a latch that only drives an output, which no
   next-state function reads. *)
let image_matches_monolithic ~seed ~nlatch ~npi ~ngates k =
  let net =
    Circuits.Generators.random_sequential ~seed
      { Circuits.Generators.default_profile with nlatch; npi; ngates }
  in
  List.iteri
    (fun i l -> if (k lsr i) land 1 = 1 then N.set_latch_init net l N.Ix)
    (N.latches net);
  let first = List.hd (N.latches net) in
  if seed mod 3 = 0 then
    N.replace_fanin net first ~old_fanin:(N.latch_data net first)
      ~new_fanin:(N.add_const net (seed mod 2 = 0));
  N.set_output net "spare"
    (N.add_latch net ~name:"spare" N.I1 (List.hd (N.inputs net)));
  let inputs = List.map (fun p -> p.N.name) (N.inputs net) in
  let npi = List.length inputs in
  let same ~outputs parts bad =
    let m = R.machine ~outputs ~max_nodes:max_int ~inputs parts
    and r = Mono.machine ~outputs ~inputs parts in
    let old v = if v < npi then v else npi + ((v - npi) / 2) in
    let old_asn = List.map (fun (v, b) -> (old v, b)) in
    match
      ( R.explore m ~init:m.R.init ~bad:(lazy (bad m.R.man m.R.parts)),
        Mono.explore r ~init:r.Mono.init ~bad:(bad r.Mono.man r.Mono.parts)
      )
    with
    | R.Reached a, R.Reached b -> Bdd.equal (Bdd.rename m.R.man a old) b
    | R.Hit t, R.Hit u ->
      t.R.steps = u.R.steps
      && old_asn t.R.start = u.R.start
      && old_asn t.R.witness = u.R.witness
    | (R.Reached _ | R.Hit _), _ -> false
  in
  let state_cube man parts =
    let c = parts.(0) in
    List.fold_left (Bdd.band man) Bdd.btrue
      (List.mapi
         (fun i l ->
           let v = Bdd.var man (Hashtbl.find c.R.ps_var l.N.id) in
           if (seed lsr i) land 1 = 1 then v else Bdd.bnot man v)
         c.R.latches)
  in
  let outputs_differ man parts =
    let a = parts.(0) and b = parts.(1) in
    let out c name =
      Hashtbl.find c.R.values (List.assoc name (N.outputs c.R.net)).N.id
    in
    List.fold_left
      (fun acc (name, _) ->
        Bdd.bor man acc (Bdd.bxor man (out a name) (out b name)))
      Bdd.bfalse (N.outputs net)
  in
  let mutant = drop_cube net k in
  same ~outputs:false [ (net, N.latches net) ] state_cube
  && same ~outputs:true
       [ (net, N.latches net); (mutant, N.latches mutant) ]
       outputs_differ

let prop_partitioned_image_matches_monolithic =
  QCheck.Test.make ~count:200
    ~name:"partitioned image matches the monolithic relation"
    QCheck.(quad (int_range 0 10_000) (int_range 1 5) (int_range 1 3)
              (int_range 0 63))
    (fun (seed, nlatch, npi, k) ->
      image_matches_monolithic ~seed ~nlatch ~npi ~ngates:(4 + (seed mod 9)) k)

(* The same on machines large enough for the conjunct schedule to leave
   bit order: 6-10 latches and 20-40 gates, alone and as product machines
   of 13-23 state bits. *)
let prop_partitioned_image_matches_monolithic_large =
  QCheck.Test.make ~count:60
    ~name:"larger partitioned images match the monolithic relation"
    QCheck.(quad (int_range 0 10_000) (int_range 6 10) (int_range 1 4)
              (int_range 0 1023))
    (fun (seed, nlatch, npi, k) ->
      image_matches_monolithic ~seed ~nlatch ~npi ~ngates:(20 + (seed mod 21))
        k)

(* [Reach.Internal.schedule] on random machines, alone and as product
   machines: the conjunct order is a permutation of the bits, and every
   input and present-state variable is quantified exactly once, up front
   only when no next-state function reads it, else at its last reader. *)
let prop_schedule_is_sound =
  QCheck.Test.make ~count:200 ~name:"image schedule quantifies at last readers"
    QCheck.(quad (int_range 0 10_000) (int_range 1 10) (int_range 1 5)
              (int_range 0 63))
    (fun (seed, nlatch, npi, k) ->
      let net =
        Circuits.Generators.random_sequential ~seed
          { Circuits.Generators.default_profile with
            nlatch; npi; ngates = 4 + (seed mod 37) }
      in
      let inputs = List.map (fun p -> p.N.name) (N.inputs net) in
      let sound parts =
        let m = R.machine ~outputs:false ~max_nodes:max_int ~inputs parts in
        let early, plan = R.Internal.schedule m in
        let next = Array.of_list m.R.next in
        let nbits = Array.length next in
        let reads k v = List.mem v (Bdd.support m.R.man (snd next.(k))) in
        let leaves = List.init npi Fun.id @ List.map fst m.R.next in
        let rec last_readers = function
          | [] -> true
          | (k, vars) :: later ->
            List.for_all
              (fun v ->
                reads k v && not (List.exists (fun (j, _) -> reads j v) later))
              vars
            && last_readers later
        in
        List.sort compare (List.map fst plan) = List.init nbits Fun.id
        && List.sort compare (early @ List.concat_map snd plan)
           = List.sort compare leaves
        && List.for_all
             (fun v -> not (List.exists (fun (j, _) -> reads j v) plan))
             early
        && last_readers plan
      in
      let mutant = drop_cube net k in
      sound [ (net, N.latches net) ]
      && sound [ (net, N.latches net); (mutant, N.latches mutant) ])

(* A machine whose schedule leaves bit order: [r0 <- a AND b], [r1 <- c],
   [r2 <- a].  Bits 0 and 1 each quantify one input ([b], [c]); bit 1 reads
   fewer fresh inputs, so it goes first, then bit 0, then bit 2 with [a].
   No next-state function reads a latch, so the state goes up front. *)
let test_schedule_order () =
  let net = N.create ~name:"sched" () in
  let a = N.add_input net "a" and b = N.add_input net "b"
  and c = N.add_input net "c" in
  let g = N.add_logic net ~name:"g" and2 [ a; b ] in
  let r0 = N.add_latch net ~name:"r0" N.I0 g in
  let r1 = N.add_latch net ~name:"r1" N.I0 c in
  let r2 = N.add_latch net ~name:"r2" N.I0 a in
  List.iteri
    (fun i r -> N.set_output net (Printf.sprintf "o%d" i) r)
    [ r0; r1; r2 ];
  let m =
    R.machine ~outputs:false ~max_nodes:max_int ~inputs:[ "a"; "b"; "c" ]
      [ (net, [ r0; r1; r2 ]) ]
  in
  let early, plan = R.Internal.schedule m in
  Alcotest.(check (list int)) "state up front" [ 3; 5; 7 ] early;
  Alcotest.(check (list (pair int (list int))))
    "order and quantified variables"
    [ (1, [ 2 ]); (0, [ 1 ]); (2, [ 0 ]) ]
    plan

let () =
  Alcotest.run "eqcheck"
    [ ( "comb",
        [ Alcotest.test_case "identical nets" `Quick test_comb_identical;
          Alcotest.test_case "dcret dontcare" `Quick test_comb_dcret_dontcare;
          Alcotest.test_case "refutes without dc" `Quick
            test_comb_refutes_without_dc;
          Alcotest.test_case "escalation soundness" `Quick
            test_escalation_soundness ] );
      ( "mutations",
        [ Alcotest.test_case "wrong retimed init" `Quick
            test_mutation_wrong_retimed_init;
          Alcotest.test_case "over-widened dc" `Quick
            test_mutation_over_widened_dc;
          Alcotest.test_case "dropped cube" `Quick test_mutation_dropped_cube ] );
      ( "dcret",
        [ Alcotest.test_case "proved" `Quick test_dcret_proved;
          Alcotest.test_case "refuted" `Quick test_dcret_refuted;
          Alcotest.test_case "refuted after four cycles" `Quick
            test_dcret_refuted_late ] );
      ( "budgets",
        [ Alcotest.test_case "unknown on caps" `Quick test_unknown_on_caps ] );
      ( "result",
        [ Alcotest.test_case "check verdicts" `Quick test_check_result ] );
      ( "integration",
        [ Alcotest.test_case "flow s27" `Quick test_flow_s27;
          Alcotest.test_case "merge legal" `Quick test_merge_legal;
          Alcotest.test_case "render json" `Quick test_render_json ] );
      ( "oracle",
        [ QCheck_alcotest.to_alcotest prop_engine_matches_explicit_oracle;
          QCheck_alcotest.to_alcotest
            prop_partitioned_image_matches_monolithic;
          QCheck_alcotest.to_alcotest
            prop_partitioned_image_matches_monolithic_large ] );
      ( "schedule",
        [ Alcotest.test_case "order" `Quick test_schedule_order;
          QCheck_alcotest.to_alcotest prop_schedule_is_sound ] ) ]
