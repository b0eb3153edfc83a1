module N = Netlist.Network
module Reach = Dontcare.Reach

type options = {
  max_state_bits : int;
  max_product_bits : int;
  max_comb_leaves : int;
  max_bdd_nodes : int;
  sat_conflicts : int;
}

let default_options =
  { max_state_bits = 22;
    max_product_bits = 26;
    max_comb_leaves = 96;
    max_bdd_nodes = 200_000;
    sat_conflicts = 50_000 }

(* Verdict tallies and cap-trip reasons, published to the process-wide
   registry so a suite run can report where the checker gave up. *)
let m_verdicts_proved = Obs.Metrics.counter "eqcheck.verdicts.proved"
let m_verdicts_refuted = Obs.Metrics.counter "eqcheck.verdicts.refuted"
let m_verdicts_unknown = Obs.Metrics.counter "eqcheck.verdicts.unknown"
let m_cap_comb_leaves = Obs.Metrics.counter "eqcheck.cap.comb_leaves"
let m_cap_product_bits = Obs.Metrics.counter "eqcheck.cap.product_bits"
let m_cap_state_bits = Obs.Metrics.counter "eqcheck.cap.state_bits"
let m_cap_bdd_nodes = Obs.Metrics.counter "eqcheck.cap.bdd_nodes"
let m_cap_sat_conflicts = Obs.Metrics.counter "eqcheck.cap.sat_conflicts"
let m_cone_rescued = Obs.Metrics.counter "eqcheck.seq.cone_rescued"

type cex = {
  endpoint : string;
  leaves : (string * bool) list;
  init_pre : (string * bool) list;
  init_post : (string * bool) list;
  trace : (string * bool) list list;
  sim_confirmed : bool;
}

type verdict =
  | Proved
  | Simulated of string
  | Refuted of cex
  | Unknown of string

type record = {
  label : string;
  pass : string;
  rule : string;
  verdict : verdict;
  seconds : float;
}

let verdict_name = function
  | Proved -> "proved"
  | Simulated _ -> "simulated"
  | Refuted _ -> "refuted"
  | Unknown _ -> "unknown"

(* --- shared helpers ---------------------------------------------------------- *)

(* (representative, member) pairs of each class: its first element against
   each of the others *)
let class_pairs classes =
  List.concat_map
    (function
      | [] | [ _ ] -> [] | rep :: rest -> List.map (fun m -> (rep, m)) rest)
    classes

(* DC_ret classes arrive as latch node ids of the resynthesis working copy;
   both sides of a pass carry the same latch names (the mapper and the editing
   kernels preserve them), so the don't-care condition is expressed over
   names.  Dead ids are tolerated — merge-back legitimately consumes class
   members. *)
let class_name_pairs nets classes =
  let name_of id =
    List.find_map
      (fun net ->
        match N.node_opt net id with
        | Some n when N.is_latch n -> Some n.N.name
        | Some _ | None -> None)
      nets
  in
  class_pairs
    (List.map
       (fun cls ->
         List.filter_map name_of (List.sort_uniq compare cls)
         |> List.sort_uniq compare)
       classes)

let endpoints net =
  List.map (fun (name, n) -> (name, n.N.id)) (N.outputs net)
  @ List.map
      (fun l -> ("next:" ^ l.N.name, (N.latch_data net l).N.id))
      (N.latches net)

let comb_interface_matches pre post =
  Sim.Equiv.leaf_names pre = Sim.Equiv.leaf_names post
  && Sim.Equiv.endpoint_names pre = Sim.Equiv.endpoint_names post

(* --- combinational equivalence modulo DC_ret --------------------------------- *)

let make_comb_cex pre post leaves assign =
  let l = List.map (fun name -> (name, assign name)) leaves in
  let f name = List.assoc name l in
  let ea = Sim.Equiv.eval_endpoints pre f in
  let eb = Sim.Equiv.eval_endpoints post f in
  let diverging =
    List.find_opt
      (fun (name, va) ->
        match List.assoc_opt name eb with
        | Some vb -> vb <> va
        | None -> true)
      ea
  in
  let endpoint, confirmed =
    match diverging with
    | Some (name, _) -> (name, true)
    | None -> ("(none)", false)
  in
  { endpoint;
    leaves = l;
    init_pre = [];
    init_post = [];
    trace = [];
    sim_confirmed = confirmed }

let comb_check_bdd ~options ~pairs pre post leaves =
  let man = Bdd.create () in
  let var_idx = Hashtbl.create 64 in
  List.iteri (fun i name -> Hashtbl.add var_idx name i) leaves;
  let var_of_name name = Hashtbl.find var_idx name in
  let budget () = Reach.check_budget man ~max_nodes:options.max_bdd_nodes in
  let leaf n = Some (Bdd.var man (var_of_name n.N.name)) in
  let values_pre = Reach.cone_values man ~budget ~leaf pre in
  let values_post = Reach.cone_values man ~budget ~leaf post in
  (* care set: every pair of equivalent registers agrees *)
  let care =
    List.fold_left
      (fun acc (a, b) ->
        match (Hashtbl.find_opt var_idx a, Hashtbl.find_opt var_idx b) with
        | Some va, Some vb ->
          Bdd.band man acc (Bdd.bxnor man (Bdd.var man va) (Bdd.var man vb))
        | _, _ -> acc)
      Bdd.btrue pairs
  in
  let post_eps = endpoints post in
  let diff =
    List.find_map
      (fun (name, ida) ->
        match List.assoc_opt name post_eps with
        | None -> None (* interface already checked; defensive *)
        | Some idb ->
          let fa = Hashtbl.find values_pre ida in
          let fb = Hashtbl.find values_post idb in
          let d = Bdd.band man (Bdd.bxor man fa fb) care in
          budget ();
          if Bdd.is_false d then None else Some d)
      (endpoints pre)
  in
  match diff with
  | None -> `Proved
  | Some d ->
    let witness = Bdd.any_sat man d in
    `Diff
      (fun name ->
        Option.value ~default:false (List.assoc_opt (var_of_name name) witness))

let comb_check_sat ~options ~pairs pre post =
  let solver = Sat_lite.create () in
  let leaf_vars = Hashtbl.create 64 in
  let var_of_name name =
    match Hashtbl.find_opt leaf_vars name with
    | Some v -> v
    | None ->
      let v = Sat_lite.new_var solver in
      Hashtbl.add leaf_vars name v;
      v
  in
  (* one encoder per network, so shared cones are encoded once per check *)
  let leaf_var n = var_of_name n.N.name in
  let enc_pre = Sim.Equiv.tseitin solver pre ~leaf_var in
  let enc_post = Sim.Equiv.tseitin solver post ~leaf_var in
  (* DC_ret as satisfiability don't-cares: restrict the search to care states
     by asserting the class members equal *)
  List.iter
    (fun (a, b) ->
      let va = var_of_name a and vb = var_of_name b in
      Sat_lite.add_clause solver [ -(va + 1); vb + 1 ];
      Sat_lite.add_clause solver [ va + 1; -(vb + 1) ])
    pairs;
  let post_eps = endpoints post in
  let xor_vars =
    List.filter_map
      (fun (name, ida) ->
        match List.assoc_opt name post_eps with
        | None -> None
        | Some idb ->
          let va = enc_pre ida and vb = enc_post idb in
          let x = Sat_lite.new_var solver in
          Sat_lite.add_clause solver [ -(x + 1); va + 1; vb + 1 ];
          Sat_lite.add_clause solver [ -(x + 1); -(va + 1); -(vb + 1) ];
          Sat_lite.add_clause solver [ x + 1; -(va + 1); vb + 1 ];
          Sat_lite.add_clause solver [ x + 1; va + 1; -(vb + 1) ];
          Some x)
      (endpoints pre)
  in
  Sat_lite.add_clause solver (List.map (fun x -> x + 1) xor_vars);
  match Sat_lite.solve ~conflict_limit:options.sat_conflicts solver with
  | Sat_lite.Unsat -> `Proved
  | Sat_lite.Unknown ->
    Obs.Metrics.incr m_cap_sat_conflicts;
    `Unknown "sat_lite conflict budget exhausted"
  | Sat_lite.Sat model ->
    let assign name =
      match Hashtbl.find_opt leaf_vars name with
      | Some v when v < Array.length model -> model.(v)
      | Some _ | None -> false
    in
    `Diff assign

let comb_check ?(options = default_options) ?(classes = []) pre post =
  if not (comb_interface_matches pre post) then
    Unknown "interface mismatch (leaf or endpoint names differ)"
  else begin
    let leaves = Sim.Equiv.leaf_names pre in
    let pairs = class_name_pairs [ pre; post ] classes in
    if List.length leaves > options.max_comb_leaves then begin
      Obs.Metrics.incr m_cap_comb_leaves;
      Unknown
        (Printf.sprintf "leaf cap: %d leaves > %d" (List.length leaves)
           options.max_comb_leaves)
    end
    else begin
      let finish = function
        | `Proved -> Proved
        | `Unknown msg -> Unknown msg
        | `Diff assign -> Refuted (make_comb_cex pre post leaves assign)
      in
      match comb_check_bdd ~options ~pairs pre post leaves with
      | r -> finish r
      | exception Reach.Too_large _ ->
        Obs.Metrics.incr m_cap_bdd_nodes;
        finish (comb_check_sat ~options ~pairs pre post)
    end
  end

(* --- sequential equivalence with counterexample traces ------------------------ *)

(* Latches that can influence some primary output: the transitive fanin of the
   output drivers, crossing latches through their data pins (fixpoint).  A
   latch outside this set never reaches an output in any number of cycles, so
   the product machine can drop it without changing the verdict. *)
let observable_latches net =
  let seen = Hashtbl.create 256 in
  let obs = Hashtbl.create 64 in
  let rec walk id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      let n = N.node net id in
      match n.N.kind with
      | N.Input | N.Const _ -> ()
      | N.Logic _ -> Array.iter walk n.N.fanins
      | N.Latch _ ->
        Hashtbl.replace obs n.N.id ();
        walk (N.latch_data net n).N.id
    end
  in
  List.iter (fun (_, n) -> walk n.N.id) (N.outputs net);
  List.filter (fun l -> Hashtbl.mem obs l.N.id) (N.latches net)

let pi_names net =
  List.sort compare (List.map (fun n -> n.N.name) (N.inputs net))

let io_mismatch pre post =
  let po_names net = List.sort compare (List.map fst (N.outputs net)) in
  if pi_names pre <> pi_names post then Some "primary-input name mismatch"
  else if po_names pre <> po_names post then
    Some "primary-output name mismatch"
  else None

(* Simulation confirmation (the cex-quality contract): drive both netlists
   through [trace] from the given initial latch values and demand an actual
   output divergence.  A candidate the replay cannot reproduce (never seen
   on a sound witness) degrades to Unknown rather than a refutation. *)
let confirm pre post ~init_pre ~init_post ~endpoint trace =
  let rec go sa sb = function
    | [] ->
      Unknown
        (Printf.sprintf
           "unconfirmed counterexample for %s (replay of %d cycle(s) did not \
            diverge)"
           endpoint (List.length trace))
    | vector :: rest ->
      let pi name = List.assoc name vector in
      let sa', oa = Sim.Simulate.step pre ~pi ~state:sa in
      let sb', ob = Sim.Simulate.step post ~pi ~state:sb in
      (match
         List.find_opt (fun (name, va) -> List.assoc_opt name ob <> Some va) oa
       with
       | Some (name, _) ->
         let named = List.map (fun (l, v) -> (l.N.name, v)) in
         Refuted
           { endpoint = name;
             leaves = List.nth trace (List.length trace - 1);
             init_pre = named init_pre;
             init_post = named init_post;
             trace;
             sim_confirmed = true }
       | None -> go sa' sb' rest)
  in
  let ids = List.map (fun (l, v) -> (l.N.id, v)) in
  go (ids init_pre) (ids init_post) trace

(* The product machine of [pre] and [post] on the shared primary inputs,
   ordered by name: the output-observable latches of each side are its state
   bits, and the bad states are those where some output differs. *)
let seq_check ?(options = default_options) pre post =
  match io_mismatch pre post with
  | Some reason -> Unknown reason
  | None ->
    let all_latches_a = N.latches pre and all_latches_b = N.latches post in
    (* shrink the product machine to output-observable registers before the
       state-bit cap; latches outside every output cone cannot change the
       verdict, and dropping them rescues checks the full register count
       would push past the cap *)
    let latches_a = observable_latches pre
    and latches_b = observable_latches post in
    let bits = List.length latches_a + List.length latches_b in
    if bits > options.max_product_bits then begin
      Obs.Metrics.incr m_cap_product_bits;
      Unknown
        (Printf.sprintf "state-bit cap: %d product bits > %d" bits
           options.max_product_bits)
    end
    else begin
      if List.length all_latches_a + List.length all_latches_b
         > options.max_product_bits
      then Obs.Metrics.incr m_cone_rescued;
      try
        let m =
          Reach.machine ~outputs:true ~max_nodes:options.max_bdd_nodes
            ~inputs:(pi_names pre)
            [ (pre, latches_a); (post, latches_b) ]
        in
        let man = m.Reach.man in
        let a = m.Reach.parts.(0) and b = m.Reach.parts.(1) in
        let output c node = Hashtbl.find c.Reach.values node.N.id in
        let outputs_equal =
          List.fold_left
            (fun acc (name, na) ->
              let nb = List.assoc name (N.outputs post) in
              Bdd.band man acc (Bdd.bxnor man (output a na) (output b nb)))
            Bdd.btrue (N.outputs pre)
        in
        match
          Reach.explore m ~init:m.Reach.init
            ~bad:(lazy (Bdd.bnot man outputs_equal))
        with
        | Reach.Reached _ -> Proved
        | Reach.Hit t ->
          let w = t.Reach.witness in
          let trace = t.Reach.steps @ [ Reach.input_vector m w ] in
          (* diverging endpoint at the witness cycle, from the product BDDs *)
          let assign v = Option.value ~default:false (List.assoc_opt v w) in
          let endpoint =
            match
              List.find_opt
                (fun (name, na) ->
                  let nb = List.assoc name (N.outputs post) in
                  Bdd.eval man (output a na) assign
                  <> Bdd.eval man (output b nb) assign)
                (N.outputs pre)
            with
            | Some (name, _) -> name
            | None -> "(none)"
          in
          (* replay states are total over ALL latches: registers dropped from
             the product machine cannot influence outputs, so their declared
             initial value (Ix resolved to 0) is as good as any *)
          let init c =
            List.map
              (fun l ->
                ( l,
                  match Reach.latch_value c t.Reach.start l with
                  | Some v -> v
                  | None -> N.latch_init l = N.I1 ))
              (N.latches c.Reach.net)
          in
          confirm pre post ~init_pre:(init a) ~init_post:(init b) ~endpoint
            trace
      with Reach.Too_large msg ->
        Obs.Metrics.incr m_cap_bdd_nodes;
        Unknown msg
    end

(* --- whole-result check ---------------------------------------------------------- *)

(* The product machine as a Table I row check runs it: a 28-bit cap and a
   4M-node budget.  The suite's largest proof, one of s420's, peaks at
   about 22k nodes; the budget bounds memory (about 100 bytes a node) on
   pairs whose 28-bit product machine grows without limit, which then fall
   back to co-simulation.
   Per-pass checks keep [default_options]. *)
let result_options =
  { default_options with max_product_bits = 28; max_bdd_nodes = 4_000_000 }

let check_result pre post =
  match seq_check ~options:result_options pre post with
  | (Proved | Simulated _ | Refuted _) as v -> v
  | Unknown reason ->
    let unknown_init l = N.latch_init l = N.Ix in
    (match
       ( io_mismatch pre post,
         List.find_opt unknown_init (N.latches pre @ N.latches post) )
     with
     | Some _, _ -> Unknown reason
     | None, Some l ->
       Unknown
         (Printf.sprintf
            "%s; latch %s has no binary initial value for co-simulation"
            reason l.N.name)
     | None, None ->
       (match
          Obs.Trace.span ~cat:"verify" "verify/cosim" (fun () ->
              Sim.Equiv.seq_equal_random ~seed:0xC0FFEE pre post)
        with
        | None -> Simulated reason
        | Some trace ->
          let init net =
            List.map (fun l -> (l, N.latch_init l = N.I1)) (N.latches net)
          in
          confirm pre post ~init_pre:(init pre) ~init_post:(init post)
            ~endpoint:"(co-simulation)" trace))

(* --- DC_ret invariant: bounded reachability ----------------------------------- *)

(* The machine of [net] alone, inputs in declaration order: the bad states
   are those where two members of a class disagree. *)
let dcret_check ?(options = default_options) net classes =
  let live id =
    match N.node_opt net id with
    | Some n when N.is_latch n -> Some n
    | Some _ | None -> None
  in
  let live_pairs =
    class_pairs
      (List.map
         (fun cls -> List.filter_map live (List.sort_uniq compare cls))
         classes)
  in
  if live_pairs = [] then Proved
  else begin
    let latches = N.latches net in
    let nl = List.length latches in
    if nl > options.max_state_bits then begin
      Obs.Metrics.incr m_cap_state_bits;
      Unknown
        (Printf.sprintf "state-bit cap: %d latches > %d" nl
           options.max_state_bits)
    end
    else begin
      try
        let m =
          Reach.machine ~outputs:false ~max_nodes:options.max_bdd_nodes
            ~inputs:(List.map (fun p -> p.N.name) (N.inputs net))
            [ (net, latches) ]
        in
        let man = m.Reach.man and c = m.Reach.parts.(0) in
        let var l = Bdd.var man (Hashtbl.find c.Reach.ps_var l.N.id) in
        (* replicated copies of one register share its (possibly unknown)
           initial value, so class members start pairwise equal even when
           the declared init is Ix *)
        let init =
          List.fold_left
            (fun acc (a, b) -> Bdd.band man acc (Bdd.bxnor man (var a) (var b)))
            m.Reach.init live_pairs
        in
        let bad =
          List.fold_left
            (fun acc (a, b) -> Bdd.bor man acc (Bdd.bxor man (var a) (var b)))
            Bdd.bfalse live_pairs
        in
        match Reach.explore m ~init ~bad:(Lazy.from_val bad) with
        | Reach.Reached _ -> Proved
        | Reach.Hit t ->
          let trace = t.Reach.steps in
          let value asn l = Option.get (Reach.latch_value c asn l) in
          let w = t.Reach.witness in
          let endpoint =
            match
              List.find_opt (fun (a, b) -> value w a <> value w b) live_pairs
            with
            | Some (a, b) -> Printf.sprintf "dcret:%s<>%s" a.N.name b.N.name
            | None -> "dcret:(none)"
          in
          let named_state asn =
            List.map (fun l -> (l.N.name, value asn l)) latches
          in
          (* replay: drive the netlist through the trace and demand the two
             class members really disagree at the violation cycle *)
          let final_state =
            List.fold_left
              (fun state vector ->
                let pi name = List.assoc name vector in
                fst (Sim.Simulate.step net ~pi ~state))
              (List.map (fun l -> (l.N.id, value t.Reach.start l)) latches)
              trace
          in
          let differ (a, b) =
            List.assoc a.N.id final_state <> List.assoc b.N.id final_state
          in
          if List.exists differ live_pairs then
            Refuted
              { endpoint;
                leaves =
                  (match List.rev trace with [] -> [] | last :: _ -> last);
                init_pre = named_state t.Reach.start;
                init_post = named_state w;
                trace;
                sim_confirmed = true }
          else
            Unknown
              (Printf.sprintf
                 "unconfirmed class violation %s (replay of %d cycle(s) did \
                  not diverge)"
                 endpoint (List.length trace))
      with Reach.Too_large msg ->
        Obs.Metrics.incr m_cap_bdd_nodes;
        Unknown msg
    end
  end

(* --- per-pass driver ----------------------------------------------------------- *)

let timed f =
  let t0 = Unix.gettimeofday () in (* lint-waive: nondet/wall-clock — feeds only the record's seconds measurement field, never a verdict *)
  let v = f () in
  (v, Unix.gettimeofday () -. t0) (* lint-waive: nondet/wall-clock — measurement only, same as above *)

let check_pass ?(options = default_options) ~label ~pass ~classes pre post =
  (* the class-invariant certificate only reads [post] and owns its own BDD
     scope *)
  let dcret_records =
    if classes = [] then []
    else
      let v, secs = timed (fun () -> dcret_check ~options post classes) in
      [ { label; pass; rule = "dcret-invariant"; verdict = v; seconds = secs } ]
  in
  let eq_record =
    if comb_interface_matches pre post then begin
      let v, secs = timed (fun () -> comb_check ~options ~classes pre post) in
      match v with
      | Proved ->
        { label; pass; rule = "eq-pass/comb"; verdict = Proved; seconds = secs }
      | Simulated _ | Refuted _ | Unknown _ ->
        (* a combinational difference is not yet a refutation: passes such as
           unreachable-state simplification change cone functions only on
           unreachable states.  Escalate to the sequential product machine,
           which alone may refute. *)
        let v2, secs2 = timed (fun () -> seq_check ~options pre post) in
        { label;
          pass;
          rule = "eq-pass/seq";
          verdict = v2;
          seconds = secs +. secs2 }
    end
    else begin
      let v, secs = timed (fun () -> seq_check ~options pre post) in
      { label; pass; rule = "eq-pass/seq"; verdict = v; seconds = secs }
    end
  in
  let records = eq_record :: dcret_records in
  List.iter
    (fun r ->
      Obs.Metrics.incr
        (match r.verdict with
         | Proved -> m_verdicts_proved
         | Refuted _ -> m_verdicts_refuted
         | Simulated _ | Unknown _ -> m_verdicts_unknown))
    records;
  records

(* --- pass-boundary hook -------------------------------------------------------- *)

let instrument ?(options = default_options) ~label sink =
  let reference = ref None in
  let remember net =
    reference := Some (net, N.revision net, N.outputs_revision net, N.copy net)
  in
  let unchanged net =
    match !reference with
    | Some (src, rev, orev, _) ->
      src == net && N.revision net = rev && N.outputs_revision net = orev
    | None -> false
  in
  let boundary pass classes net =
    match !reference with
    | Some (_, _, _, pre_copy) when not (unchanged net) ->
      let post_copy = N.copy net in
      sink :=
        !sink @ check_pass ~options ~label ~pass ~classes pre_copy post_copy;
      (* the snapshot (identical node ids, never mutated) is the next
         boundary's [pre] side *)
      reference :=
        Some (net, N.revision net, N.outputs_revision net, post_copy)
    | Some _ | None -> () (* unchanged: the existing snapshot still matches *)
  in
  fun { Verify.pass; classes; input; in_place = _ } ->
    (* the pass reads [input] as it stands now: a stale reference (another
       lineage, such as the second flow branching from the same input) is
       replaced before the pass runs *)
    if not (unchanged input) then remember input;
    boundary pass classes

(* --- rendering ------------------------------------------------------------------ *)

let counts records =
  List.fold_left
    (fun (p, r, u) rec_ ->
      match rec_.verdict with
      | Proved -> (p + 1, r, u)
      | Refuted _ -> (p, r + 1, u)
      | Simulated _ | Unknown _ -> (p, r, u + 1))
    (0, 0, 0) records

let render records =
  String.concat "\n"
    (List.map
       (fun r ->
         let detail =
           match r.verdict with
           | Proved -> ""
           | Refuted c ->
             Printf.sprintf " endpoint=%s trace=%d sim_confirmed=%b"
               c.endpoint (List.length c.trace) c.sim_confirmed
           | Simulated msg | Unknown msg -> Printf.sprintf " (%s)" msg
         in
         Printf.sprintf "%-8s %s: %s [%s] %.3fs%s"
           (verdict_name r.verdict) r.label r.pass r.rule r.seconds detail)
       records)

let to_json records =
  let record r =
    let extra =
      match r.verdict with
      | Proved -> []
      | Refuted c ->
        [ ("endpoint", Obs.Json.Str c.endpoint);
          ("trace_length", Obs.Json.Int (List.length c.trace));
          ("sim_confirmed", Obs.Json.Bool c.sim_confirmed) ]
      | Simulated msg | Unknown msg -> [ ("reason", Obs.Json.Str msg) ]
    in
    Obs.Json.Obj
      ([ ("label", Obs.Json.Str r.label);
         ("pass", Obs.Json.Str r.pass);
         ("rule", Obs.Json.Str r.rule);
         ("verdict", Obs.Json.Str (verdict_name r.verdict));
         ("seconds", Obs.Json.Float r.seconds) ]
      @ extra)
  in
  Obs.Json.List (List.map record records)
