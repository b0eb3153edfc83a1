module N = Netlist.Network

exception Too_large of string

(* --- the symbolic machine ------------------------------------------------ *)

let check_budget man ~max_nodes =
  if Bdd.node_count man > max_nodes then
    raise (Too_large "bdd node budget exhausted")

let cone_values man ~budget ~leaf ?roots net =
  let need = Hashtbl.create 256 in
  let rec mark id =
    if not (Hashtbl.mem need id) then begin
      Hashtbl.replace need id ();
      let n = N.node net id in
      if N.is_logic n then Array.iter mark n.N.fanins
    end
  in
  Option.iter (List.iter mark) roots;
  let values = Hashtbl.create 256 in
  List.iter
    (fun n -> Option.iter (Hashtbl.add values n.N.id) (leaf n))
    (N.inputs net @ N.latches net);
  List.iter
    (fun n ->
      match n.N.kind with
      | N.Const b ->
        Hashtbl.add values n.N.id (if b then Bdd.btrue else Bdd.bfalse)
      | N.Input | N.Latch _ | N.Logic _ -> ())
    (N.all_nodes net);
  List.iter
    (fun n ->
      if roots = None || Hashtbl.mem need n.N.id then begin
        let fanins = Array.map (Hashtbl.find values) n.N.fanins in
        Hashtbl.add values n.N.id (Bdd.of_cover man fanins (N.cover_of n));
        budget ()
      end)
    (N.topo_combinational net);
  values

type component = {
  net : N.t;
  latches : N.node list;
  ps_var : (int, int) Hashtbl.t;
  values : (int, Bdd.t) Hashtbl.t;
}

type machine = {
  man : Bdd.man;
  max_nodes : int;
  inputs : string list;
  nstate : int;
  parts : component array;
  transition : Bdd.t;
  init : Bdd.t;
}

(* Variable layout: input [i] is variable [i]; the state bits of the parts
   follow in order; next-state variables sit [nstate] above their present
   state.  Each part's leaves and cones are built before the next part's, and
   the budget is checked after every cone node and transition conjunct. *)
let machine ~outputs ~max_nodes ~inputs parts =
  let man = Bdd.create () in
  let budget () = check_budget man ~max_nodes in
  let npi = List.length inputs in
  let pi_var = Hashtbl.create 16 in
  List.iteri (fun i name -> Hashtbl.add pi_var name i) inputs;
  let build base (net, latches) =
    let ps_var = Hashtbl.create 16 in
    List.iteri (fun j l -> Hashtbl.add ps_var l.N.id (base + j)) latches;
    let leaf n =
      if N.is_latch n then
        Option.map (Bdd.var man) (Hashtbl.find_opt ps_var n.N.id)
      else Some (Bdd.var man (Hashtbl.find pi_var n.N.name))
    in
    let roots =
      (if outputs then List.map (fun (_, n) -> n.N.id) (N.outputs net)
       else [])
      @ List.map (fun l -> (N.latch_data net l).N.id) latches
    in
    ( base + List.length latches,
      { net;
        latches;
        ps_var;
        values = cone_values man ~budget ~leaf ~roots net } )
  in
  let base, parts = List.fold_left_map build npi parts in
  let nstate = base - npi in
  let over_latches f acc =
    List.fold_left
      (fun acc c -> List.fold_left (f c) acc c.latches)
      acc parts
  in
  let transition =
    over_latches
      (fun c t l ->
        let ns = Hashtbl.find c.ps_var l.N.id + nstate in
        let f = Hashtbl.find c.values (N.latch_data c.net l).N.id in
        let t = Bdd.band man t (Bdd.bxnor man (Bdd.var man ns) f) in
        budget ();
        t)
      Bdd.btrue
  in
  let init =
    over_latches
      (fun c acc l ->
        let v = Bdd.var man (Hashtbl.find c.ps_var l.N.id) in
        match N.latch_init l with
        | N.I0 -> Bdd.band man acc (Bdd.bnot man v)
        | N.I1 -> Bdd.band man acc v
        | N.Ix -> acc)
      Bdd.btrue
  in
  { man; max_nodes; inputs; nstate; parts = Array.of_list parts;
    transition; init }

type trace = {
  steps : (string * bool) list list;
  start : (int * bool) list;
  witness : (int * bool) list;
}

type outcome = Reached of Bdd.t | Hit of trace

let input_vector m asn = List.mapi (fun i name -> (name, List.assoc i asn)) m.inputs

let latch_value c asn l =
  Option.map (fun v -> List.assoc v asn) (Hashtbl.find_opt c.ps_var l.N.id)

(* Walk the rings (newest first) back from the bad part [hit] of the newest
   one: at each step pick a predecessor state in the next older ring and an
   input that maps it onto the current state. *)
let walk m hit rings =
  let man = m.man in
  let npi = List.length m.inputs in
  let vars = List.init (npi + m.nstate) Fun.id in
  (* a total assignment extending a satisfying path of [f] (every completion
     of an [any_sat] partial assignment satisfies [f]) *)
  let full_assign f =
    let partial = Bdd.any_sat man f in
    List.map
      (fun v -> (v, Option.value ~default:false (List.assoc_opt v partial)))
      vars
  in
  let state asn = List.filter (fun (v, _) -> v >= npi) asn in
  let rec back s steps = function
    | [] -> (steps, s)
    | ring :: older ->
      let ns_cube =
        List.fold_left
          (fun acc (v, b) ->
            let nsv = Bdd.var man (v + m.nstate) in
            Bdd.band man acc (if b then nsv else Bdd.bnot man nsv))
          Bdd.btrue s
      in
      let pred = Bdd.band man (Bdd.band man m.transition ns_cube) ring in
      let asn = full_assign pred in
      check_budget man ~max_nodes:m.max_nodes;
      back (state asn) (input_vector m asn :: steps) older
  in
  let witness = full_assign hit in
  let steps, start = back (state witness) [] (List.tl rings) in
  { steps; start; witness }

let explore m ~init ~bad =
  let man = m.man in
  let vars = List.init (List.length m.inputs + m.nstate) Fun.id in
  let image r =
    let after = Bdd.and_exists man vars m.transition r in
    Bdd.rename man after (fun v -> v - m.nstate)
  in
  let rec fixpoint reached frontier rings =
    check_budget man ~max_nodes:m.max_nodes;
    let hit = Bdd.band man frontier (Lazy.force bad) in
    if not (Bdd.is_false hit) then Hit (walk m hit rings)
    else begin
      let fresh = Bdd.band man (image frontier) (Bdd.bnot man reached) in
      if Bdd.is_false fresh then Reached reached
      else fixpoint (Bdd.bor man reached fresh) fresh (fresh :: rings)
    end
  in
  fixpoint init init [ init ]

(* --- unreachable states (baseline B) --------------------------------------- *)

type result = {
  latch_order : N.node list;
  reachable : Logic.Cover.t;
  unreachable : Logic.Cover.t;
  num_reachable : float;
}

let unreachable_states ?(max_latches = 24) net =
  let latches = N.latches net in
  let nlatch = List.length latches in
  if nlatch = 0 then
    raise (Too_large "no latches: no state space to enumerate");
  if nlatch > max_latches then
    raise (Too_large (Printf.sprintf "%d latches" nlatch));
  let inputs = List.map (fun p -> p.N.name) (N.inputs net) in
  (* a scope on the shared table: [Bdd.node_count] charges only this
     traversal, so the node budget is independent of whatever other rows or
     domains have already built *)
  let m =
    machine ~outputs:false ~max_nodes:2_000_000 ~inputs [ (net, latches) ]
  in
  match explore m ~init:m.init ~bad:(Lazy.from_val Bdd.bfalse) with
  | Hit _ -> assert false (* nothing meets an empty bad set *)
  | Reached reached ->
    let man = m.man in
    (* express over latch variables 0..nlatch-1 *)
    let shifted = Bdd.rename man reached (fun v -> v - List.length inputs) in
    let cover_of f =
      try Bdd.to_cover ~max_cubes:20_000 man ~nvars:nlatch f
      with Bdd.Cover_too_large ->
        raise (Too_large "reachable-set cover explosion")
    in
    let reachable = cover_of shifted in
    let unreachable = cover_of (Bdd.bnot man shifted) in
    { latch_order = latches;
      reachable;
      unreachable;
      num_reachable = Bdd.sat_count man ~nvars:nlatch shifted }

let simplify_with_unreachable net =
  match unreachable_states net with
  | exception Too_large _ -> 0
  | r ->
    let latch_var = Hashtbl.create 16 in
    List.iteri (fun j l -> Hashtbl.add latch_var l.N.id j) r.latch_order;
    (* DC for a cone: the unreachable cubes whose support lies within the
       cone's latch leaves, renamed to the cone's numbering.  Such a cube
       is unreachable whatever the other latches hold, so it is a sound
       don't-care; projecting the unreachable set existentially is not. *)
    let dc_for ~leaves =
      let nvars = Array.length leaves in
      let var_in_cone = Hashtbl.create 8 in
      Array.iteri
        (fun i leaf ->
          Option.iter
            (fun j -> Hashtbl.add var_in_cone j i)
            (Hashtbl.find_opt latch_var leaf.N.id))
        leaves;
      let rename cube =
        let c = Logic.Cube.universe nvars in
        match
          Logic.Cube.iteri
            (fun v l ->
              if l <> Logic.Cube.Both then
                Logic.Cube.set c (Hashtbl.find var_in_cone v) l)
            cube
        with
        | () -> Some c
        | exception Not_found -> None
      in
      Logic.Cover.make nvars
        (List.filter_map rename r.unreachable.Logic.Cover.cubes)
    in
    let rebuilt = ref 0 in
    let targets =
      List.map (fun l -> N.latch_data net l) (N.latches net)
      @ List.map snd (N.outputs net)
    in
    let seen = Hashtbl.create 16 in
    List.iter
      (fun n ->
        match N.node_opt net n.N.id with
        | Some n when N.is_logic n && not (Hashtbl.mem seen n.N.id) ->
          Hashtbl.add seen n.N.id ();
          if Cone.simplify_root ~dc_for net n then incr rebuilt
        | Some _ | None -> ())
      targets;
    !rebuilt
