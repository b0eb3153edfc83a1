module N = Netlist.Network

exception Too_large of string

(* --- shared helpers -------------------------------------------------------- *)

let leaf_names net =
  let pis = List.map (fun n -> n.N.name) (N.inputs net) in
  let states = List.map (fun l -> l.N.name) (N.latches net) in
  List.sort_uniq compare (pis @ states)

let endpoint_names net =
  let pos = List.map fst (N.outputs net) in
  let nexts = List.map (fun l -> "next:" ^ l.N.name) (N.latches net) in
  List.sort_uniq compare (pos @ nexts)

(* Evaluate all endpoints of a network under an assignment of leaves given by
   name. *)
let eval_endpoints net assign =
  let leaf_value id =
    let n = N.node net id in
    assign n.N.name
  in
  let po =
    List.map
      (fun (name, n) -> (name, N.eval_comb net leaf_value n.N.id))
      (N.outputs net)
  in
  let next =
    List.map
      (fun l ->
        ("next:" ^ l.N.name, N.eval_comb net leaf_value (N.latch_data net l).N.id))
      (N.latches net)
  in
  po @ next

let comb_equal_exhaustive a b =
  let leaves = leaf_names a in
  if leaf_names b <> leaves then false
  else if endpoint_names a <> endpoint_names b then false
  else begin
    let n = List.length leaves in
    if n > 16 then raise (Too_large "comb_equal_exhaustive: > 16 leaves");
    let indexed = List.mapi (fun i name -> (name, i)) leaves in
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < 1 lsl n do
      let bits = !i in
      let assign name = bits land (1 lsl List.assoc name indexed) <> 0 in
      let ea = eval_endpoints a assign and eb = eval_endpoints b assign in
      let sort = List.sort compare in
      if sort ea <> sort eb then ok := false;
      incr i
    done;
    !ok
  end

(* --- SAT-based combinational equivalence ----------------------------------- *)

(* One Tseitin encoder per (solver, network): its memo persists across the
   roots it is applied to, so cones shared between endpoints are encoded
   once. *)
let tseitin solver net ~leaf_var =
  let memo = Hashtbl.create 64 in
  let rec go id =
    match Hashtbl.find_opt memo id with
    | Some v -> v
    | None ->
      let n = N.node net id in
      let v =
        match n.N.kind with
        | N.Input | N.Latch _ -> leaf_var n
        | N.Const b ->
          let v = Sat_lite.new_var solver in
          Sat_lite.add_clause solver [ (if b then v + 1 else -(v + 1)) ];
          v
        | N.Logic cover ->
          let fanin_vars = Array.map go n.N.fanins in
          let out = Sat_lite.new_var solver in
          (* Tseitin for an SOP: introduce a var per cube. *)
          let cube_vars =
            List.map
              (fun cube ->
                let cv = Sat_lite.new_var solver in
                (* cv -> each literal *)
                Logic.Cube.iteri
                  (fun i l ->
                    let fv = fanin_vars.(i) in
                    match l with
                    | Logic.Cube.One ->
                      Sat_lite.add_clause solver [ -(cv + 1); fv + 1 ]
                    | Logic.Cube.Zero ->
                      Sat_lite.add_clause solver [ -(cv + 1); -(fv + 1) ]
                    | Logic.Cube.Both -> ())
                  cube;
                (* literals -> cv *)
                let body = ref [] in
                Logic.Cube.iteri
                  (fun i l ->
                    let fv = fanin_vars.(i) in
                    match l with
                    | Logic.Cube.One -> body := -(fv + 1) :: !body
                    | Logic.Cube.Zero -> body := fv + 1 :: !body
                    | Logic.Cube.Both -> ())
                  cube;
                Sat_lite.add_clause solver ((cv + 1) :: List.rev !body);
                cv)
              cover.Logic.Cover.cubes
          in
          (* out <-> OR of cubes *)
          List.iter
            (fun cv -> Sat_lite.add_clause solver [ -(cv + 1); out + 1 ])
            cube_vars;
          Sat_lite.add_clause solver
            (-(out + 1) :: List.map (fun cv -> cv + 1) cube_vars);
          out
      in
      Hashtbl.add memo id v;
      v
  in
  go

let comb_equal_sat ?(conflict_limit = 500_000) a b =
  let leaves = leaf_names a in
  if leaf_names b <> leaves then false
  else if endpoint_names a <> endpoint_names b then false
  else begin
    let solver = Sat_lite.create () in
    let leaf_sat =
      List.map (fun name -> (name, Sat_lite.new_var solver)) leaves
    in
    let leaf_var n = List.assoc n.N.name leaf_sat in
    let endpoints net =
      List.map (fun (name, n) -> (name, n.N.id)) (N.outputs net)
      @ List.map
          (fun l -> ("next:" ^ l.N.name, (N.latch_data net l).N.id))
          (N.latches net)
    in
    (* miter: OR of XORs of matched endpoints must be unsat; each endpoint
       gets a fresh encoder, so shared cones are encoded once per endpoint *)
    let xor_vars =
      List.map
        (fun (name, ida) ->
          let idb = List.assoc name (endpoints b) in
          let va = tseitin solver a ~leaf_var ida in
          let vb = tseitin solver b ~leaf_var idb in
          let x = Sat_lite.new_var solver in
          (* x <-> va xor vb *)
          Sat_lite.add_clause solver [ -(x + 1); va + 1; vb + 1 ];
          Sat_lite.add_clause solver [ -(x + 1); -(va + 1); -(vb + 1) ];
          Sat_lite.add_clause solver [ x + 1; -(va + 1); vb + 1 ];
          Sat_lite.add_clause solver [ x + 1; va + 1; -(vb + 1) ];
          x)
        (endpoints a)
    in
    Sat_lite.add_clause solver (List.map (fun x -> x + 1) xor_vars);
    match Sat_lite.solve ~conflict_limit solver with
    | Sat_lite.Unsat -> true
    | Sat_lite.Sat _ -> false
    | Sat_lite.Unknown -> raise (Too_large "comb_equal_sat: budget exhausted")
  end

(* --- BDD-based sequential equivalence --------------------------------------- *)

(* Variable layout for the product machine:
     0 .. npi-1                      shared primary inputs (by sorted name)
     npi .. npi+n1-1                 present-state of network A
     npi+n1 .. npi+n1+n2-1           present-state of network B
     then the same again, shifted, for next-state variables. *)
let seq_equal_bdd ?(max_latches = 28) ?(delay = 0) a b =
  let pi_names = List.sort compare (List.map (fun n -> n.N.name) (N.inputs a)) in
  let pi_names_b = List.sort compare (List.map (fun n -> n.N.name) (N.inputs b)) in
  if pi_names <> pi_names_b then false
  else if List.sort compare (List.map fst (N.outputs a))
          <> List.sort compare (List.map fst (N.outputs b))
  then false
  else begin
    let latches_a = N.latches a and latches_b = N.latches b in
    let n1 = List.length latches_a and n2 = List.length latches_b in
    if n1 + n2 > max_latches then
      raise (Too_large "seq_equal_bdd: too many latches");
    let npi = List.length pi_names in
    (* per-call scope; the product machines of different calls share node
       structure through the process-wide table *)
    let man = Bdd.create () in
    let pi_index name =
      let rec find i = function
        | [] -> invalid_arg "pi_index"
        | x :: rest -> if x = name then i else find (i + 1) rest
      in
      find 0 pi_names
    in
    let ps_var_a = Hashtbl.create 16 and ps_var_b = Hashtbl.create 16 in
    List.iteri (fun j l -> Hashtbl.add ps_var_a l.N.id (npi + j)) latches_a;
    List.iteri (fun j l -> Hashtbl.add ps_var_b l.N.id (npi + n1 + j)) latches_b;
    let ns_base = npi + n1 + n2 in
    (* build node BDDs for one network *)
    let build net ps_var =
      let values = Hashtbl.create 256 in
      List.iter
        (fun n ->
          Hashtbl.add values n.N.id (Bdd.var man (pi_index n.N.name)))
        (N.inputs net);
      List.iter
        (fun l ->
          Hashtbl.add values l.N.id (Bdd.var man (Hashtbl.find ps_var l.N.id)))
        (N.latches net);
      List.iter
        (fun n ->
          match n.N.kind with
          | N.Const v ->
            Hashtbl.add values n.N.id (if v then Bdd.btrue else Bdd.bfalse)
          | N.Input | N.Latch _ | N.Logic _ -> ())
        (N.all_nodes net);
      List.iter
        (fun n ->
          let fanins = Array.map (fun f -> Hashtbl.find values f) n.N.fanins in
          let cover = N.cover_of n in
          let cube_bdd cube =
            let acc = ref Bdd.btrue in
            Logic.Cube.iteri
              (fun i l ->
                match l with
                | Logic.Cube.One -> acc := Bdd.band man !acc fanins.(i)
                | Logic.Cube.Zero ->
                  acc := Bdd.band man !acc (Bdd.bnot man fanins.(i))
                | Logic.Cube.Both -> ())
              cube;
            !acc
          in
          let v =
            List.fold_left
              (fun acc c -> Bdd.bor man acc (cube_bdd c))
              Bdd.bfalse cover.Logic.Cover.cubes
          in
          Hashtbl.add values n.N.id v)
        (N.topo_combinational net);
      values
    in
    let values_a = build a ps_var_a and values_b = build b ps_var_b in
    (* transition relation *)
    let transition = ref Bdd.btrue in
    let add_latch values ps_var l net =
      let ns_var = ns_base + Hashtbl.find ps_var l.N.id - npi in
      let f = Hashtbl.find values (N.latch_data net l).N.id in
      transition :=
        Bdd.band man !transition (Bdd.bxnor man (Bdd.var man ns_var) f)
    in
    List.iter (fun l -> add_latch values_a ps_var_a l a) latches_a;
    List.iter (fun l -> add_latch values_b ps_var_b l b) latches_b;
    (* initial states *)
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
    (* output miter *)
    let outputs_equal = ref Bdd.btrue in
    List.iter
      (fun (name, na) ->
        let nb = List.assoc name (N.outputs b) in
        let va = Hashtbl.find values_a na.N.id in
        let vb = Hashtbl.find values_b nb.N.id in
        outputs_equal := Bdd.band man !outputs_equal (Bdd.bxnor man va vb))
      (N.outputs a);
    (* reachability fixpoint *)
    let pi_vars = List.init npi Fun.id in
    let ps_vars = List.init (n1 + n2) (fun j -> npi + j) in
    let rename_ns_to_ps f = Bdd.rename man f (fun v -> v - n1 - n2) in
    let image r =
      let after =
        Bdd.and_exists man (pi_vars @ ps_vars) !transition r
      in
      rename_ns_to_ps after
    in
    let rec fixpoint reached frontier =
      (* check outputs on the frontier *)
      let bad =
        Bdd.band man frontier (Bdd.bnot man !outputs_equal)
      in
      if not (Bdd.is_false bad) then false
      else begin
        let next = image frontier in
        let new_states = Bdd.band man next (Bdd.bnot man reached) in
        if Bdd.is_false new_states then true
        else fixpoint (Bdd.bor man reached new_states) new_states
      end
    in
    (* delayed replacement: outputs are unconstrained for [delay] cycles, so
       start the agreement fixpoint from the states reachable in exactly
       [delay] steps *)
    let rec advance k s = if k = 0 then s else advance (k - 1) (image s) in
    let start = advance delay !init in
    fixpoint start start
  end

let seq_equal_delayed ?max_latches ~k a b =
  seq_equal_bdd ?max_latches ~delay:k a b

(* --- random co-simulation --------------------------------------------------- *)

let seq_equal_random ?(vectors = 64) ?(length = 128) ~seed a b =
  let pi_names = List.map (fun n -> n.N.name) (N.inputs a) in
  let rng = Random.State.make [| seed |] in
  let run_ok () =
    let sa = ref (Simulate.binary_initial_state a) in
    let sb = ref (Simulate.binary_initial_state b) in
    let ok = ref true in
    let cycle = ref 0 in
    while !ok && !cycle < length do
      let vector = List.map (fun nm -> (nm, Random.State.bool rng)) pi_names in
      let pi name = List.assoc name vector in
      let sa', oa = Simulate.step a ~pi ~state:!sa in
      let sb', ob = Simulate.step b ~pi ~state:!sb in
      sa := sa';
      sb := sb';
      if List.sort compare oa <> List.sort compare ob then ok := false;
      incr cycle
    done;
    !ok
  in
  let rec loop k = k = 0 || (run_ok () && loop (k - 1)) in
  loop vectors

(* Random co-simulation needs a binary initial state: an unknown-init latch
   past the BDD cap leaves neither engine able to decide. *)
let seq_equal ?(seed = 0xC0FFEE) a b =
  match seq_equal_bdd a b with
  | result -> result
  | exception Too_large reason ->
    let unknown_init l = N.latch_init l = N.Ix in
    (match List.find_opt unknown_init (N.latches a @ N.latches b) with
     | Some l ->
       raise
         (Too_large
            (Printf.sprintf
               "%s; latch %s has no binary initial value for co-simulation"
               reason l.N.name))
     | None -> seq_equal_random ~seed a b)
