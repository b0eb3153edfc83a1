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
    (fun n ->
      match n.N.kind with
      | N.Const b ->
        Hashtbl.add values n.N.id (if b then Bdd.btrue else Bdd.bfalse)
      | N.Input | N.Latch _ -> Option.iter (Hashtbl.add values n.N.id) (leaf n)
      | N.Logic _ -> ())
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
  parts : component array;
  next : (int * Bdd.t) list;
  init : Bdd.t;
}

(* Variable layout: input [i] is variable [i]; state bit [k] of the parts,
   taken in order, has present-state variable [npi + 2k] and its next-state
   variable right below it.  Each part's leaves and cones are built before
   the next part's, and the budget is checked after every cone node. *)
let machine ~outputs ~max_nodes ~inputs parts =
  let man = Bdd.create () in
  let budget () = check_budget man ~max_nodes in
  let npi = List.length inputs in
  let pi_var = Hashtbl.create 16 in
  List.iteri (fun i name -> Hashtbl.add pi_var name i) inputs;
  let build ps0 (net, latches) =
    let ps_var = Hashtbl.create 16 in
    List.iteri (fun j l -> Hashtbl.add ps_var l.N.id (ps0 + 2 * j)) latches;
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
    let values = cone_values man ~budget ~leaf ~roots net in
    (ps0 + (2 * List.length latches), { net; latches; ps_var; values })
  in
  let _, parts = List.fold_left_map build npi parts in
  let bit c l =
    let ps = Hashtbl.find c.ps_var l.N.id in
    ( (ps, Hashtbl.find c.values (N.latch_data c.net l).N.id),
      match N.latch_init l with
      | N.I0 -> Bdd.bnot man (Bdd.var man ps)
      | N.I1 -> Bdd.var man ps
      | N.Ix -> Bdd.btrue )
  in
  let next, init =
    List.split (List.concat_map (fun c -> List.map (bit c) c.latches) parts)
  in
  let init = List.fold_left (Bdd.band man) Bdd.btrue init in
  { man; max_nodes; inputs; parts = Array.of_list parts; next; init }

type trace = {
  steps : (string * bool) list list;
  start : (int * bool) list;
  witness : (int * bool) list;
}

type outcome = Reached of Bdd.t | Hit of trace

let input_vector m asn = List.mapi (fun i name -> (name, List.assoc i asn)) m.inputs

let latch_value c asn l =
  Option.map (fun v -> List.assoc v asn) (Hashtbl.find_opt c.ps_var l.N.id)

(* the input variables, then every bit's present-state variable *)
let leaves m = List.init (List.length m.inputs) Fun.id @ List.map fst m.next

(* Walk the rings (newest first) back from the bad part [hit] of the newest
   one: at each step pick a predecessor state in the next older ring and an
   input that maps it onto the current state [s]: [ring AND (f_k == s_k)]. *)
let walk m hit rings =
  let man = m.man in
  (* a total assignment extending a satisfying path of [f] (every completion
     of an [any_sat] partial assignment satisfies [f]) *)
  let full_assign f =
    let partial = Bdd.any_sat man f in
    List.map
      (fun v -> (v, Option.value ~default:false (List.assoc_opt v partial)))
      (leaves m)
  in
  let state asn = List.filter (fun (v, _) -> v >= List.length m.inputs) asn in
  let rec back s steps = function
    | [] -> (steps, s)
    | ring :: older ->
      let pred =
        List.fold_left2
          (fun acc (_, f) (_, b) ->
            Bdd.band man acc (if b then f else Bdd.bnot man f))
          ring m.next s
      in
      let asn = full_assign pred in
      check_budget man ~max_nodes:m.max_nodes;
      back (state asn) (input_vector m asn :: steps) older
  in
  let witness = full_assign hit in
  let steps, start = back (state witness) [] (List.tl rings) in
  { steps; start; witness }

(* The image's conjunct order, a static greedy schedule (Ranjan et al.,
   IWLS 1995): repeatedly the remaining bit whose conjunct would quantify the
   most input and present-state variables now, those no other remaining
   conjunct reads; ties go to the fewest input variables no earlier conjunct
   read (every present-state variable counts as read from the start), then
   to the lowest bit.  Each variable is then quantified with its last reader
   in that order (built from the last conjunct back, the first to [claim]
   it), and those none reads up front. *)
let schedule m =
  let man = m.man in
  let npi = List.length m.inputs in
  let supports =
    Array.of_list (List.map (fun (_, f) -> Bdd.support man f) m.next)
  in
  let n = Array.length supports in
  let readers = Array.make (npi + (2 * n)) 0 in
  Array.iter (List.iter (fun v -> readers.(v) <- readers.(v) + 1)) supports;
  let introduced = Array.init (npi + (2 * n)) (fun v -> v >= npi) in
  let left = Array.make n true in
  let count p k = List.length (List.filter p supports.(k)) in
  let rec order acc =
    let best = ref (-1) and key = ref (min_int, min_int) in
    (* scanning down, so that a tie goes to the lower bit *)
    for k = n - 1 downto 0 do
      if left.(k) then begin
        let score =
          ( count (fun v -> readers.(v) = 1) k,
            - count (fun v -> not introduced.(v)) k )
        in
        if compare score !key >= 0 then (best := k; key := score)
      end
    done;
    if !best < 0 then List.rev acc
    else begin
      let k = !best in
      left.(k) <- false;
      List.iter
        (fun v -> readers.(v) <- readers.(v) - 1; introduced.(v) <- true)
        supports.(k);
      order (k :: acc)
    end
  in
  let claimed = Array.make (npi + (2 * n)) false in
  let claim v = (not claimed.(v)) && (claimed.(v) <- true; true) in
  let plan =
    List.fold_right
      (fun k acc -> (k, List.filter claim supports.(k)) :: acc)
      (order []) []
  in
  (List.filter claim (leaves m), plan)

(* The image folds [and_exists] over the conjuncts [ns_k <-> f_k] in the
   {!schedule} order; the budget is checked after every conjunct. *)
let explore m ~init ~bad =
  let man = m.man in
  let steps = ref 0 in
  Obs.Trace.span ~cat:"reach"
    ~end_args:(fun () -> [ ("image_steps", Obs.Trace.Int !steps) ])
    "reach/explore"
  @@ fun () ->
  let early, plan = schedule m in
  let next = Array.of_list m.next in
  let conjuncts =
    List.map
      (fun (k, vars) ->
        let ps, f = next.(k) in
        (Bdd.bxnor man (Bdd.var man (ps + 1)) f, vars))
      plan
  in
  let image r =
    incr steps;
    let after =
      List.fold_left
        (fun acc (c, vars) ->
          let acc = Bdd.and_exists man vars c acc in
          check_budget man ~max_nodes:m.max_nodes;
          acc)
        (Bdd.exists man early r) conjuncts
    in
    Bdd.rename man after (fun v -> v - 1)
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

module Internal = struct
  let schedule = schedule
end

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
  (* a scope on the domain's table: [Bdd.node_count] charges only this
     traversal, so the node budget is independent of whatever other rows
     have already built *)
  let m =
    machine ~outputs:false ~max_nodes:2_000_000 ~inputs [ (net, latches) ]
  in
  match explore m ~init:m.init ~bad:(Lazy.from_val Bdd.bfalse) with
  | Hit _ -> assert false (* nothing meets an empty bad set *)
  | Reached reached ->
    let man = m.man in
    (* express over latch variables 0..nlatch-1 *)
    let npi = List.length inputs in
    let shifted = Bdd.rename man reached (fun v -> (v - npi) / 2) in
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
      List.map (N.latch_data net) (N.latches net) @ List.map snd (N.outputs net)
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
