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
