module N = Netlist.Network

(* Internal: a BDD build or fixpoint outgrew the node budget; callers fall
   back to SAT (combinational) or report Unknown (sequential). *)
exception Budget of string

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
let m_bdd_reuse = Obs.Metrics.counter "eqcheck.bdd.reuse"

(* cone-memo outcome split: [hit] = recorded build served the pre side;
   [miss] = memo consulted but empty or unusable; [evict] = a recorded
   build displaced without ever being reused (stale net/frame/table).
   [eqcheck.bdd.reuse] above stays as the historical alias of [hit]. *)
let m_memo_hit = Obs.Metrics.counter "eqcheck.memo.hit"
let m_memo_miss = Obs.Metrics.counter "eqcheck.memo.miss"
let m_memo_evict = Obs.Metrics.counter "eqcheck.memo.evict"

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
  List.concat_map
    (fun cls ->
      let names =
        List.filter_map name_of (List.sort_uniq compare cls)
        |> List.sort_uniq compare
      in
      match names with
      | [] | [ _ ] -> []
      | rep :: rest -> List.map (fun m -> (rep, m)) rest)
    classes

let endpoints net =
  List.map (fun (name, n) -> (name, n.N.id)) (N.outputs net)
  @ List.map
      (fun l -> ("next:" ^ l.N.name, (N.latch_data net l).N.id))
      (N.latches net)

let comb_interface_matches pre post =
  Sim.Equiv.leaf_names pre = Sim.Equiv.leaf_names post
  && Sim.Equiv.endpoint_names pre = Sim.Equiv.endpoint_names post

(* Memo of the last cone-function build, keyed by network identity, revision
   and leaf frame.  In an instrumented flow the [pre] side of check k+1 is a
   snapshot of the [post] side of check k, so its cone BDDs can be reused
   instead of rebuilt: the shared unique table never frees or renumbers
   nodes, so the handles stay valid across checks.  Budget parity is kept by
   [Bdd.adopt]-ing the recorded build charge into the new check's scope. *)
type cone_memo = {
  me_net : N.t;
  me_rev : int;
  me_frame : string list;  (** the leaf list the variable frame was built on *)
  me_values : (int, Bdd.t) Hashtbl.t;
  me_man : Bdd.man;  (** sub-scope charged with exactly this build's nodes *)
}

type memo = cone_memo option ref

let memo () : memo = ref None

(* Node BDDs for every combinational value of [net], leaves resolved through
   [var_of_name]; raises [Budget] once [budget_man]'s charge passes the node
   cap ([budget_man] is the whole check's cumulative scope, so the cap trips
   exactly as it did when every check rebuilt from scratch). *)
(* Seed [values] (node id -> BDD) with every constant node of [net]. *)
let add_consts values net =
  List.iter
    (fun n ->
      match n.N.kind with
      | N.Const b ->
        Hashtbl.add values n.N.id (if b then Bdd.btrue else Bdd.bfalse)
      | N.Input | N.Latch _ | N.Logic _ -> ())
    (N.all_nodes net)

(* BDD of logic node [n]'s cover over its fanins' BDDs in [values]. *)
let cover_bdd man values n =
  let fanins = Array.map (fun f -> Hashtbl.find values f) n.N.fanins in
  let cube_bdd cube =
    let acc = ref Bdd.btrue in
    Logic.Cube.iteri
      (fun i l ->
        match l with
        | Logic.Cube.One -> acc := Bdd.band man !acc fanins.(i)
        | Logic.Cube.Zero -> acc := Bdd.band man !acc (Bdd.bnot man fanins.(i))
        | Logic.Cube.Both -> ())
      cube;
    !acc
  in
  List.fold_left
    (fun acc c -> Bdd.bor man acc (cube_bdd c))
    Bdd.bfalse (N.cover_of n).Logic.Cover.cubes

let build_values man ~budget_man ~max_bdd_nodes net var_of_name =
  let values = Hashtbl.create 256 in
  List.iter
    (fun p -> Hashtbl.add values p.N.id (Bdd.var man (var_of_name p.N.name)))
    (N.inputs net);
  List.iter
    (fun l -> Hashtbl.add values l.N.id (Bdd.var man (var_of_name l.N.name)))
    (N.latches net);
  add_consts values net;
  List.iter
    (fun n ->
      Hashtbl.add values n.N.id (cover_bdd man values n);
      if Bdd.node_count budget_man > max_bdd_nodes then
        raise (Budget "bdd node budget exhausted building cone functions"))
    (N.topo_combinational net);
  values

(* Total assignment over [vars] extending a satisfying path of [f] (every
   completion of an [any_sat] partial assignment satisfies [f]). *)
let full_assign man f vars =
  let partial = Bdd.any_sat man f in
  List.map
    (fun v ->
      (v, match List.assoc_opt v partial with Some b -> b | None -> false))
    vars

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

let comb_check_bdd ~options ~pairs ?memo pre post leaves =
  let man = Bdd.create () in
  let var_idx = Hashtbl.create 64 in
  List.iteri (fun i name -> Hashtbl.add var_idx name i) leaves;
  let var_of_name name = Hashtbl.find var_idx name in
  let max_bdd_nodes = options.max_bdd_nodes in
  (* each side builds in a sub-scope so the memo can record exactly that
     side's node charge, while [man] keeps the cumulative count the budget
     tests against *)
  let build net =
    let scope = Bdd.sub_scope man in
    (build_values scope ~budget_man:man ~max_bdd_nodes net var_of_name, scope)
  in
  let values_pre =
    match memo with
    | Some r ->
      (match !r with
       | Some m
         when m.me_net == pre
              && m.me_rev = N.revision pre
              && m.me_frame = leaves
              (* in `Private mode each check owns a fresh table, so recorded
                 handles are meaningless here: fall through and rebuild *)
              && Bdd.same_table m.me_man man ->
         Obs.Metrics.incr m_bdd_reuse;
         Obs.Metrics.incr m_memo_hit;
         Bdd.adopt man m.me_man;
         m.me_values
       | Some _ ->
         (* recorded build can't serve this check and is displaced below
            without ever being reused *)
         Obs.Metrics.incr m_memo_miss;
         Obs.Metrics.incr m_memo_evict;
         fst (build pre)
       | None ->
         Obs.Metrics.incr m_memo_miss;
         fst (build pre))
    | None -> fst (build pre)
  in
  let values_post, post_scope = build post in
  (match memo with
   | Some r ->
     r :=
       Some
         { me_net = post;
           me_rev = N.revision post;
           me_frame = leaves;
           me_values = values_post;
           me_man = post_scope }
   | None -> ());
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
          if Bdd.node_count man > max_bdd_nodes then
            raise (Budget "bdd node budget exhausted on the miter");
          if Bdd.is_false d then None else Some d)
      (endpoints pre)
  in
  match diff with
  | None -> `Proved
  | Some d ->
    let witness = full_assign man d (List.init (List.length leaves) Fun.id) in
    let assign name =
      match List.assoc_opt (var_of_name name) witness with
      | Some b -> b
      | None -> false
    in
    `Diff assign

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

let comb_check ?(options = default_options) ?(classes = []) ?memo pre post =
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
      match comb_check_bdd ~options ~pairs ?memo pre post leaves with
      | r -> finish r
      | exception Budget _ ->
        Obs.Metrics.incr m_cap_bdd_nodes;
        finish (comb_check_sat ~options ~pairs pre post)
    end
  end

(* --- sequential equivalence with counterexample traces ------------------------ *)

(* Latches that can influence some primary output: the transitive fanin of the
   output drivers, crossing latches through their data pins (fixpoint).  A
   latch outside this set never reaches an output in any number of cycles, so
   the product machine can drop it without changing the verdict. *)
let observable_latch_ids net =
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
  obs

let pi_names net =
  List.sort compare (List.map (fun n -> n.N.name) (N.inputs net))

let io_mismatch pre post =
  let po_names net = List.sort compare (List.map fst (N.outputs net)) in
  if pi_names pre <> pi_names post then Some "primary-input name mismatch"
  else if po_names pre <> po_names post then
    Some "primary-output name mismatch"
  else None

(* Drive both netlists through [trace] from the given states: the first
   primary output on which they disagree, if any. *)
let replay pre post ~state_pre ~state_post trace =
  let rec go sa sb = function
    | [] -> None
    | vector :: rest ->
      let pi name = List.assoc name vector in
      let sa', oa = Sim.Simulate.step pre ~pi ~state:sa in
      let sb', ob = Sim.Simulate.step post ~pi ~state:sb in
      (match
         List.find_opt (fun (name, va) -> List.assoc_opt name ob <> Some va) oa
       with
       | Some (name, _) -> Some name
       | None -> go sa' sb' rest)
  in
  go state_pre state_post trace

(* never observed on a sound witness; degrade rather than report a
   refutation simulation cannot reproduce *)
let unconfirmed endpoint trace =
  Unknown
    (Printf.sprintf
       "unconfirmed counterexample for %s (replay of %d cycle(s) did not \
        diverge)"
       endpoint (List.length trace))

(* Variable layout: shared primary inputs by sorted name, then present state
   of [pre], then of [post]; next-state variables follow, shifted by the
   total latch count. *)
let seq_check ?(options = default_options) pre post =
  match io_mismatch pre post with
  | Some reason -> Unknown reason
  | None ->
    let pi_names = pi_names pre in
    let all_latches_a = N.latches pre and all_latches_b = N.latches post in
    (* shrink the product machine to output-observable registers before the
       state-bit cap; latches outside every output cone cannot change the
       verdict, and dropping them rescues checks the full register count
       would push past the cap *)
    let obs_a = observable_latch_ids pre
    and obs_b = observable_latch_ids post in
    let latches_a =
      List.filter (fun l -> Hashtbl.mem obs_a l.N.id) all_latches_a
    and latches_b =
      List.filter (fun l -> Hashtbl.mem obs_b l.N.id) all_latches_b
    in
    let n1 = List.length latches_a and n2 = List.length latches_b in
    let full_bits =
      List.length all_latches_a + List.length all_latches_b
    in
    if n1 + n2 > options.max_product_bits then begin
      Obs.Metrics.incr m_cap_product_bits;
      Unknown
        (Printf.sprintf "state-bit cap: %d product bits > %d" (n1 + n2)
           options.max_product_bits)
    end
    else begin
      if full_bits > options.max_product_bits then
        Obs.Metrics.incr m_cone_rescued;
      try
        let npi = List.length pi_names in
        let man = Bdd.create () in
        let budget () =
          if Bdd.node_count man > options.max_bdd_nodes then
            raise (Budget "bdd node budget exhausted")
        in
        let pi_idx = Hashtbl.create 16 in
        List.iteri (fun i name -> Hashtbl.add pi_idx name i) pi_names;
        let ps_var_a = Hashtbl.create 16 and ps_var_b = Hashtbl.create 16 in
        List.iteri
          (fun j l -> Hashtbl.add ps_var_a l.N.id (npi + j))
          latches_a;
        List.iteri
          (fun j l -> Hashtbl.add ps_var_b l.N.id (npi + n1 + j))
          latches_b;
        let ns_base = npi + n1 + n2 in
        let build net ps_var latches =
          (* combinational nodes feeding an output or a relevant next-state
             function; cones of dropped latches are never built (their latch
             leaves have no product variable anyway) *)
          let need = Hashtbl.create 256 in
          let rec mark id =
            if not (Hashtbl.mem need id) then begin
              Hashtbl.replace need id ();
              match (N.node net id).N.kind with
              | N.Logic _ -> Array.iter mark (N.node net id).N.fanins
              | N.Input | N.Const _ | N.Latch _ -> ()
            end
          in
          List.iter (fun (_, n) -> mark n.N.id) (N.outputs net);
          List.iter (fun l -> mark (N.latch_data net l).N.id) latches;
          let values = Hashtbl.create 256 in
          List.iter
            (fun n ->
              Hashtbl.add values n.N.id
                (Bdd.var man (Hashtbl.find pi_idx n.N.name)))
            (N.inputs net);
          List.iter
            (fun l ->
              Hashtbl.add values l.N.id
                (Bdd.var man (Hashtbl.find ps_var l.N.id)))
            latches;
          add_consts values net;
          List.iter
            (fun n ->
              if Hashtbl.mem need n.N.id then begin
                Hashtbl.add values n.N.id (cover_bdd man values n);
                budget ()
              end)
            (N.topo_combinational net);
          values
        in
        let values_a = build pre ps_var_a latches_a in
        let values_b = build post ps_var_b latches_b in
        let transition = ref Bdd.btrue in
        let add_latch values ps_var l net =
          let ns_var = ns_base + Hashtbl.find ps_var l.N.id - npi in
          let f = Hashtbl.find values (N.latch_data net l).N.id in
          transition :=
            Bdd.band man !transition (Bdd.bxnor man (Bdd.var man ns_var) f);
          budget ()
        in
        List.iter (fun l -> add_latch values_a ps_var_a l pre) latches_a;
        List.iter (fun l -> add_latch values_b ps_var_b l post) latches_b;
        let init = ref Bdd.btrue in
        let add_init ps_var l =
          let v = Bdd.var man (Hashtbl.find ps_var l.N.id) in
          match N.latch_init l with
          | N.I0 -> init := Bdd.band man !init (Bdd.bnot man v)
          | N.I1 -> init := Bdd.band man !init v
          | N.Ix -> ()
        in
        List.iter (add_init ps_var_a) latches_a;
        List.iter (add_init ps_var_b) latches_b;
        let outputs_equal = ref Bdd.btrue in
        List.iter
          (fun (name, na) ->
            let nb = List.assoc name (N.outputs post) in
            let va = Hashtbl.find values_a na.N.id in
            let vb = Hashtbl.find values_b nb.N.id in
            outputs_equal := Bdd.band man !outputs_equal (Bdd.bxnor man va vb))
          (N.outputs pre);
        let pi_vars = List.init npi Fun.id in
        let ps_vars = List.init (n1 + n2) (fun j -> npi + j) in
        let image r =
          let after = Bdd.and_exists man (pi_vars @ ps_vars) !transition r in
          Bdd.rename man after (fun v -> v - n1 - n2)
        in
        (* rings, oldest first: rings.(i) is the frontier reached in exactly
           [i] steps (minus earlier states) — the breadcrumbs for trace
           extraction *)
        let rec fixpoint reached frontier rings =
          budget ();
          let bad = Bdd.band man frontier (Bdd.bnot man !outputs_equal) in
          if not (Bdd.is_false bad) then `Bad (bad, List.rev rings)
          else begin
            let next = image frontier in
            let fresh = Bdd.band man next (Bdd.bnot man reached) in
            if Bdd.is_false fresh then `Proved
            else fixpoint (Bdd.bor man reached fresh) fresh (fresh :: rings)
          end
        in
        match fixpoint !init !init [ !init ] with
        | `Proved -> Proved
        | `Bad (bad, rings) ->
          let k = List.length rings - 1 in
          let w = full_assign man bad (pi_vars @ ps_vars) in
          let value_in asn v = List.assoc v asn in
          let pi_vector asn =
            List.mapi (fun i name -> (name, value_in asn i)) pi_names
          in
          (* walk the rings backwards: at step i pick a predecessor state in
             ring i-1 and an input that maps it onto the witness state *)
          let rec backwards i s_i inputs =
            if i = 0 then (inputs, s_i)
            else begin
              let ring = List.nth rings (i - 1) in
              let ns_cube =
                List.fold_left
                  (fun acc v ->
                    let nsv = Bdd.var man (ns_base + (v - npi)) in
                    let lit =
                      if value_in s_i v then nsv else Bdd.bnot man nsv
                    in
                    Bdd.band man acc lit)
                  Bdd.btrue ps_vars
              in
              let pred = Bdd.band man (Bdd.band man !transition ns_cube) ring in
              let asn = full_assign man pred (pi_vars @ ps_vars) in
              let s_prev = List.filter (fun (v, _) -> v >= npi) asn in
              budget ();
              backwards (i - 1) s_prev (pi_vector asn :: inputs)
            end
          in
          let s_k = List.filter (fun (v, _) -> v >= npi) w in
          let inputs, s_0 = backwards k s_k [] in
          let trace = inputs @ [ pi_vector w ] in
          (* diverging endpoint at the witness cycle, from the product BDDs *)
          let assign_fun v =
            match List.assoc_opt v w with Some b -> b | None -> false
          in
          let endpoint =
            match
              List.find_opt
                (fun (name, na) ->
                  let nb = List.assoc name (N.outputs post) in
                  Bdd.eval man (Hashtbl.find values_a na.N.id) assign_fun
                  <> Bdd.eval man (Hashtbl.find values_b nb.N.id) assign_fun)
                (N.outputs pre)
            with
            | Some (name, _) -> name
            | None -> "(none)"
          in
          (* replay states are total over ALL latches: registers dropped from
             the product machine cannot influence outputs, so their declared
             initial value (Ix resolved to 0) is as good as any *)
          let init_value_of l ps_var =
            match Hashtbl.find_opt ps_var l.N.id with
            | Some v -> value_in s_0 v
            | None ->
              (match N.latch_init l with N.I1 -> true | N.I0 | N.Ix -> false)
          in
          let state_of latches ps_var =
            List.map (fun l -> (l.N.id, init_value_of l ps_var)) latches
          in
          let named_init latches ps_var =
            List.map (fun l -> (l.N.name, init_value_of l ps_var)) latches
          in
          (* simulation confirmation (the cex-quality contract): replay the
             trace on both netlists from the extracted initial states and
             demand an actual output divergence *)
          (match
             replay pre post
               ~state_pre:(state_of all_latches_a ps_var_a)
               ~state_post:(state_of all_latches_b ps_var_b)
               trace
           with
           | Some name ->
             Refuted
               { endpoint = name;
                 leaves = pi_vector w;
                 init_pre = named_init all_latches_a ps_var_a;
                 init_post = named_init all_latches_b ps_var_b;
                 trace;
                 sim_confirmed = true }
           | None -> unconfirmed endpoint trace)
      with Budget msg ->
        Obs.Metrics.incr m_cap_bdd_nodes;
        Unknown msg
    end

(* --- whole-result check ---------------------------------------------------------- *)

(* The product machine as a Table I row check runs it: a 28-bit cap and a
   4M-node budget.  The suite's largest proof needs 2.6M nodes; the budget
   bounds memory (about 100 bytes a node) on pairs whose 28-bit product
   machine grows without limit, which then fall back to co-simulation.
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
          let state net = Sim.Simulate.binary_initial_state net in
          let named net =
            List.map (fun l -> (l.N.name, N.latch_init l = N.I1)) (N.latches net)
          in
          (match
             replay pre post ~state_pre:(state pre) ~state_post:(state post)
               trace
           with
           | Some endpoint ->
             Refuted
               { endpoint;
                 leaves = List.nth trace (List.length trace - 1);
                 init_pre = named pre;
                 init_post = named post;
                 trace;
                 sim_confirmed = true }
           | None -> unconfirmed "(co-simulation)" trace)))

(* --- DC_ret invariant: bounded reachability ----------------------------------- *)

let dcret_check ?(options = default_options) net classes =
  let live_pairs =
    List.concat_map
      (fun cls ->
        let live =
          List.filter_map
            (fun id ->
              match N.node_opt net id with
              | Some n when N.is_latch n -> Some n
              | Some _ | None -> None)
            (List.sort_uniq compare cls)
        in
        match live with
        | [] | [ _ ] -> []
        | rep :: rest -> List.map (fun m -> (rep, m)) rest)
      classes
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
        let pis = N.inputs net in
        let npi = List.length pis in
        let man = Bdd.create () in
        let budget () =
          if Bdd.node_count man > options.max_bdd_nodes then
            raise (Budget "bdd node budget exhausted")
        in
        let ps_var = Hashtbl.create 16 in
        List.iteri (fun j l -> Hashtbl.add ps_var l.N.id (npi + j)) latches;
        let pi_names = List.map (fun p -> p.N.name) pis in
        let pi_idx = Hashtbl.create 16 in
        List.iteri (fun i name -> Hashtbl.add pi_idx name i) pi_names;
        let var_of_name name =
          match Hashtbl.find_opt pi_idx name with
          | Some i -> i
          | None ->
            (* latch leaves resolve through ps_var below; inputs only here *)
            invalid_arg "dcret_check: unknown leaf"
        in
        let values = Hashtbl.create 256 in
        List.iter
          (fun p ->
            Hashtbl.add values p.N.id (Bdd.var man (var_of_name p.N.name)))
          pis;
        List.iter
          (fun l ->
            Hashtbl.add values l.N.id
              (Bdd.var man (Hashtbl.find ps_var l.N.id)))
          latches;
        add_consts values net;
        List.iter
          (fun n ->
            Hashtbl.add values n.N.id (cover_bdd man values n);
            budget ())
          (N.topo_combinational net);
        let ns_base = npi + nl in
        let transition = ref Bdd.btrue in
        List.iteri
          (fun j l ->
            let f = Hashtbl.find values (N.latch_data net l).N.id in
            transition :=
              Bdd.band man !transition
                (Bdd.bxnor man (Bdd.var man (ns_base + j)) f);
            budget ())
          latches;
        (* initial states: declared values; replicated copies of one register
           share its (possibly unknown) initial value, so class members are
           constrained pairwise equal even when the declared init is Ix *)
        let init = ref Bdd.btrue in
        List.iter
          (fun l ->
            let v = Bdd.var man (Hashtbl.find ps_var l.N.id) in
            match N.latch_init l with
            | N.I0 -> init := Bdd.band man !init (Bdd.bnot man v)
            | N.I1 -> init := Bdd.band man !init v
            | N.Ix -> ())
          latches;
        let pair_vars =
          List.map
            (fun (a, b) ->
              ( (a.N.name, Hashtbl.find ps_var a.N.id),
                (b.N.name, Hashtbl.find ps_var b.N.id) ))
            live_pairs
        in
        List.iter
          (fun ((_, va), (_, vb)) ->
            init :=
              Bdd.band man !init
                (Bdd.bxnor man (Bdd.var man va) (Bdd.var man vb)))
          pair_vars;
        let bad =
          List.fold_left
            (fun acc ((_, va), (_, vb)) ->
              Bdd.bor man acc
                (Bdd.bxor man (Bdd.var man va) (Bdd.var man vb)))
            Bdd.bfalse pair_vars
        in
        let pi_vars = List.init npi Fun.id in
        let ps_vars = List.init nl (fun j -> npi + j) in
        let image r =
          let after = Bdd.and_exists man (pi_vars @ ps_vars) !transition r in
          Bdd.rename man after (fun v -> v - nl)
        in
        let rec fixpoint reached frontier rings =
          budget ();
          let viol = Bdd.band man frontier bad in
          if not (Bdd.is_false viol) then `Bad (viol, List.rev rings)
          else begin
            let next = image frontier in
            let fresh = Bdd.band man next (Bdd.bnot man reached) in
            if Bdd.is_false fresh then `Proved
            else fixpoint (Bdd.bor man reached fresh) fresh (fresh :: rings)
          end
        in
        match fixpoint !init !init [ !init ] with
        | `Proved -> Proved
        | `Bad (viol, rings) ->
          let k = List.length rings - 1 in
          let s_k = full_assign man viol ps_vars in
          let value_in asn v = List.assoc v asn in
          let pi_vector asn =
            List.mapi (fun i name -> (name, value_in asn i)) pi_names
          in
          let rec backwards i s_i inputs =
            if i = 0 then (inputs, s_i)
            else begin
              let ring = List.nth rings (i - 1) in
              let ns_cube =
                List.fold_left
                  (fun acc v ->
                    let nsv = Bdd.var man (ns_base + (v - npi)) in
                    let lit =
                      if value_in s_i v then nsv else Bdd.bnot man nsv
                    in
                    Bdd.band man acc lit)
                  Bdd.btrue ps_vars
              in
              let pred = Bdd.band man (Bdd.band man !transition ns_cube) ring in
              let asn = full_assign man pred (pi_vars @ ps_vars) in
              let s_prev = List.filter (fun (v, _) -> v >= npi) asn in
              budget ();
              backwards (i - 1) s_prev (pi_vector asn :: inputs)
            end
          in
          let trace, s_0 = backwards k s_k [] in
          let violating_pair =
            List.find_opt
              (fun ((_, va), (_, vb)) ->
                value_in s_k va <> value_in s_k vb)
              pair_vars
          in
          let endpoint =
            match violating_pair with
            | Some ((na, _), (nb, _)) ->
              Printf.sprintf "dcret:%s<>%s" na nb
            | None -> "dcret:(none)"
          in
          let named_state asn =
            List.map
              (fun l -> (l.N.name, value_in asn (Hashtbl.find ps_var l.N.id)))
              latches
          in
          (* replay: drive the netlist through the trace and demand the two
             class members really disagree at the violation cycle *)
          let state0 =
            List.map
              (fun l -> (l.N.id, value_in s_0 (Hashtbl.find ps_var l.N.id)))
              latches
          in
          let final_state =
            List.fold_left
              (fun state vector ->
                let pi name = List.assoc name vector in
                fst (Sim.Simulate.step net ~pi ~state))
              state0 trace
          in
          let confirmed =
            List.exists
              (fun (a, b) ->
                match
                  ( List.assoc_opt a.N.id final_state,
                    List.assoc_opt b.N.id final_state )
                with
                | Some va, Some vb -> va <> vb
                | _, _ -> false)
              live_pairs
          in
          if confirmed then
            Refuted
              { endpoint;
                leaves = (match trace with [] -> [] | _ -> List.nth trace (k - 1));
                init_pre = named_state s_0;
                init_post = named_state s_k;
                trace;
                sim_confirmed = true }
          else
            Unknown
              (Printf.sprintf
                 "unconfirmed class violation %s (replay of %d cycle(s) did \
                  not diverge)"
                 endpoint (List.length trace))
      with Budget msg ->
        Obs.Metrics.incr m_cap_bdd_nodes;
        Unknown msg
    end
  end

(* --- per-pass driver ----------------------------------------------------------- *)

let timed f =
  let t0 = Unix.gettimeofday () in (* lint-waive: nondet/wall-clock — feeds only the record's seconds measurement field, never a verdict *)
  let v = f () in
  (v, Unix.gettimeofday () -. t0) (* lint-waive: nondet/wall-clock — measurement only, same as above *)

let check_pass ?(options = default_options) ?memo ~label ~pass ~classes pre post
    =
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
      let v, secs =
        timed (fun () -> comb_check ~options ~classes ?memo pre post)
      in
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
  (* check k's post cones are check k+1's pre cones: one memo per flow *)
  let memo = memo () in
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
        !sink
        @ check_pass ~options ~memo ~label ~pass ~classes pre_copy post_copy;
      (* the snapshot (identical node ids, never mutated) is both the next
         boundary's [pre] side and the memo key under which [check_pass]
         records this check's post-side cone BDDs — so the next check reuses
         them instead of rebuilding *)
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

let render_json records =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i r ->
      let extra =
        match r.verdict with
        | Proved -> ""
        | Refuted c ->
          Printf.sprintf
            ", \"endpoint\": %S, \"trace_length\": %d, \"sim_confirmed\": %b"
            c.endpoint (List.length c.trace) c.sim_confirmed
        | Simulated msg | Unknown msg -> Printf.sprintf ", \"reason\": %S" msg
      in
      Buffer.add_string buf
        (Printf.sprintf
           "  { \"label\": %S, \"pass\": %S, \"rule\": %S, \"verdict\": %S, \
            \"seconds\": %.6f%s }%s\n"
           r.label r.pass r.rule
           (verdict_name r.verdict)
           r.seconds extra
           (if i = List.length records - 1 then "" else ",")))
    records;
  Buffer.add_string buf "]";
  Buffer.contents buf
