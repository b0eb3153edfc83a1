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
