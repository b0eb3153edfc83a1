(* Sequential-equivalence oracle shared by the test executables: the
   whole-result check Table I rows use, accepting a proof or a clean random
   co-simulation. *)
let seq_equivalent a b =
  match Eqcheck.check_result a b with
  | Eqcheck.Proved | Eqcheck.Simulated _ -> true
  | Eqcheck.Refuted _ | Eqcheck.Unknown _ -> false

(* Run-by-run random co-simulation: the scalar reference for
   [Sim.Equiv.seq_equal_random], which must return exactly this [option],
   trace included.  A run keeps no trace while it agrees: the diverging
   run's input vectors are redrawn from a copy of its starting random
   state. *)
let seq_equal_random ?(vectors = 64) ?(length = 128) ~seed a b =
  let module N = Netlist.Network in
  let module S = Sim.Simulate in
  let pi_names = List.map (fun n -> n.N.name) (N.inputs a) in
  let draw rng = List.map (fun nm -> (nm, Random.State.bool rng)) pi_names in
  let rng = Random.State.make [| seed |] in
  (* the number of cycles up to and including the first output divergence *)
  let rec cycle k sa sb =
    if k = length then None
    else begin
      let vector = draw rng in
      let pi name = List.assoc name vector in
      let sa', oa = S.step a ~pi ~state:sa in
      let sb', ob = S.step b ~pi ~state:sb in
      if List.sort compare oa <> List.sort compare ob then Some (k + 1)
      else cycle (k + 1) sa' sb'
    end
  in
  let rec loop k =
    if k = 0 then None
    else begin
      let start = Random.State.copy rng in
      match cycle 0 (S.binary_initial_state a) (S.binary_initial_state b) with
      | None -> loop (k - 1)
      | Some n ->
        let rec redraw i =
          if i = n then []
          else
            let v = draw start in
            v :: redraw (i + 1)
        in
        Some (redraw 0)
    end
  in
  loop vectors

(* Explicit-state reachability, the reference for the BDD engine: every
   input vector of [net] in [Network.inputs] order, as [(name, value)]
   lists. *)
let input_vectors net =
  let module N = Netlist.Network in
  List.fold_right
    (fun p acc ->
      List.concat_map
        (fun v -> [ (p.N.name, false) :: v; (p.N.name, true) :: v ])
        acc)
    (N.inputs net) [ [] ]

(* Every initial state of [net] ([Ix] latches take both values), as latch
   id -> value lists in [Network.latches] order. *)
let initial_states net =
  let module N = Netlist.Network in
  List.fold_right
    (fun l acc ->
      let values =
        match N.latch_init l with
        | N.I0 -> [ false ]
        | N.I1 -> [ true ]
        | N.Ix -> [ false; true ]
      in
      List.concat_map
        (fun s -> List.map (fun b -> (l.N.id, b) :: s) values)
        acc)
    (N.latches net) [ [] ]

(* Breadth-first search over [Sim.Simulate.step] on every input vector from
   every initial state: each reachable state (latch values in
   [Network.latches] order) with the number of cycles it takes to reach
   it first. *)
let reachable_states net =
  let vectors = input_vectors net in
  let depth = Hashtbl.create 64 in
  let rec bfs d frontier =
    let fresh =
      List.filter
        (fun s ->
          if Hashtbl.mem depth s then false
          else begin
            Hashtbl.add depth s d;
            true
          end)
        frontier
    in
    if fresh <> [] then
      bfs (d + 1)
        (List.concat_map
           (fun s ->
             List.map
               (fun vec ->
                 let pi name = List.assoc name vec in
                 fst (Sim.Simulate.step net ~pi ~state:s))
               vectors)
           fresh)
  in
  bfs 0 (initial_states net);
  Hashtbl.fold (fun s d acc -> (List.map snd s, d) :: acc) depth []

(* Breadth-first search over the product of [a] and [b] (same input and
   output names): the number of cycles of the shortest input trace on which
   some primary output differs, or [None] when no reachable pair of states
   ever disagrees. *)
let first_divergence a b =
  let vectors = input_vectors a in
  let seen = Hashtbl.create 256 in
  let rec bfs d frontier =
    let fresh =
      List.filter
        (fun pair ->
          if Hashtbl.mem seen pair then false
          else begin
            Hashtbl.add seen pair ();
            true
          end)
        frontier
    in
    if fresh = [] then None
    else begin
      let next = ref [] and diverged = ref false in
      List.iter
        (fun (sa, sb) ->
          List.iter
            (fun vec ->
              let pi name = List.assoc name vec in
              let sa', oa = Sim.Simulate.step a ~pi ~state:sa in
              let sb', ob = Sim.Simulate.step b ~pi ~state:sb in
              if List.sort compare oa <> List.sort compare ob then
                diverged := true;
              next := (sa', sb') :: !next)
            vectors)
        fresh;
      if !diverged then Some (d + 1) else bfs (d + 1) !next
    end
  in
  bfs 0
    (List.concat_map
       (fun sa -> List.map (fun sb -> (sa, sb)) (initial_states b))
       (initial_states a))

(* The symbolic machine as [Dontcare.Reach] laid it out before its image was
   partitioned, the reference for the partitioned engine: inputs, then every
   state bit's present-state variable, then the next-state variables
   [nstate] above them; one monolithic transition relation
   [T = AND_k (ns_k <-> f_k)]; the image [exists inputs, ps. T AND r]
   renamed down by [nstate]; and the walk back through
   [T AND ns-cube AND ring].  No node budget. *)
module Monolithic = struct
  module N = Netlist.Network
  module R = Dontcare.Reach

  type machine = {
    man : Bdd.man;
    inputs : string list;
    nstate : int;
    parts : R.component array;
    transition : Bdd.t;
    init : Bdd.t;
  }

  let machine ~outputs ~inputs parts =
    let man = Bdd.create () in
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
      let values = R.cone_values man ~budget:ignore ~leaf ~roots net in
      (base + List.length latches, { R.net; latches; ps_var; values })
    in
    let base, parts = List.fold_left_map build npi parts in
    let nstate = base - npi in
    let bits =
      List.concat_map (fun c -> List.map (fun l -> (c, l)) c.R.latches) parts
    in
    let transition =
      List.fold_left
        (fun t (c, l) ->
          let ns = Hashtbl.find c.R.ps_var l.N.id + nstate in
          let f = Hashtbl.find c.R.values (N.latch_data c.R.net l).N.id in
          Bdd.band man t (Bdd.bxnor man (Bdd.var man ns) f))
        Bdd.btrue bits
    in
    let init =
      List.fold_left
        (fun acc (c, l) ->
          let v = Bdd.var man (Hashtbl.find c.R.ps_var l.N.id) in
          match N.latch_init l with
          | N.I0 -> Bdd.band man acc (Bdd.bnot man v)
          | N.I1 -> Bdd.band man acc v
          | N.Ix -> acc)
        Bdd.btrue bits
    in
    { man; inputs; nstate; parts = Array.of_list parts; transition; init }

  let input_vector m asn =
    List.mapi (fun i name -> (name, List.assoc i asn)) m.inputs

  let walk m hit rings =
    let man = m.man in
    let npi = List.length m.inputs in
    let vars = List.init (npi + m.nstate) Fun.id in
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
        back (state asn) (input_vector m asn :: steps) older
    in
    let witness = full_assign hit in
    let steps, start = back (state witness) [] (List.tl rings) in
    { R.steps; start; witness }

  let explore m ~init ~bad =
    let man = m.man in
    let vars = List.init (List.length m.inputs + m.nstate) Fun.id in
    let image r =
      let after = Bdd.and_exists man vars m.transition r in
      Bdd.rename man after (fun v -> v - m.nstate)
    in
    let rec fixpoint reached frontier rings =
      let hit = Bdd.band man frontier bad in
      if not (Bdd.is_false hit) then R.Hit (walk m hit rings)
      else begin
        let fresh = Bdd.band man (image frontier) (Bdd.bnot man reached) in
        if Bdd.is_false fresh then R.Reached reached
        else fixpoint (Bdd.bor man reached fresh) fresh (fresh :: rings)
      end
    in
    fixpoint init init [ init ]
end
