module N = Netlist.Network

type state = (int * bool) list

let binary_initial_state net =
  List.map
    (fun l ->
      match N.latch_init l with
      | N.I0 -> (l.N.id, false)
      | N.I1 -> (l.N.id, true)
      | N.Ix ->
        failwith
          (Printf.sprintf "Simulate: latch %s has no binary initial value"
             l.N.name))
    (N.latches net)

let capacity net =
  List.fold_left (fun acc n -> max acc n.N.id) 0 (N.all_nodes net) + 1

(* --- compiled two-valued evaluation ------------------------------------------ *)

type cube = { pos : int array; neg : int array }

type program = {
  capacity : int;
  inputs : (string * int) array;
  latches : (int * int) array;
  outputs : (string * int) array;
  consts : (int * int) array;
  order : int array;
  covers : cube array array;
}

let compile net =
  let compile_cube fanins cube =
    let pos = ref [] and neg = ref [] in
    Logic.Cube.iteri
      (fun v l ->
        match l with
        | Logic.Cube.One -> pos := fanins.(v) :: !pos
        | Logic.Cube.Zero -> neg := fanins.(v) :: !neg
        | Logic.Cube.Both -> ())
      cube;
    { pos = Array.of_list !pos; neg = Array.of_list !neg }
  in
  let logic = Array.of_list (N.topo_combinational net) in
  { capacity = capacity net;
    inputs = Array.of_list (List.map (fun n -> (n.N.name, n.N.id)) (N.inputs net));
    latches =
      Array.of_list
        (List.map (fun l -> (l.N.id, (N.latch_data net l).N.id)) (N.latches net));
    outputs =
      Array.of_list (List.map (fun (name, n) -> (name, n.N.id)) (N.outputs net));
    consts =
      Array.of_list
        (List.filter_map
           (fun n ->
             match n.N.kind with
             | N.Const b -> Some (n.N.id, if b then -1 else 0)
             | N.Input | N.Latch _ | N.Logic _ -> None)
           (N.all_nodes net));
    order = Array.map (fun n -> n.N.id) logic;
    covers =
      Array.map
        (fun n ->
          Array.of_list
            (List.map (compile_cube n.N.fanins) (N.cover_of n).Logic.Cover.cubes))
        logic }

let eval_words p values =
  Array.iter (fun (id, w) -> values.(id) <- w) p.consts;
  for k = 0 to Array.length p.order - 1 do
    let cubes = p.covers.(k) in
    let sum = ref 0 in
    for c = 0 to Array.length cubes - 1 do
      let { pos; neg } = cubes.(c) in
      let w = ref (-1) in
      for i = 0 to Array.length pos - 1 do
        w := !w land values.(pos.(i))
      done;
      for i = 0 to Array.length neg - 1 do
        w := !w land lnot values.(neg.(i))
      done;
      sum := !sum lor !w
    done;
    values.(p.order.(k)) <- !sum
  done

(* Lane 0 of the compiled evaluator.  Of several state entries for one latch
   the first counts; entries for other ids are ignored. *)
let eval_all net ~pi ~state =
  let p = compile net in
  let values = Array.make p.capacity 0 in
  Array.iter (fun (name, id) -> if pi name then values.(id) <- 1) p.inputs;
  let given = Array.make p.capacity (-1) in
  List.iter
    (fun (id, v) ->
      if id >= 0 && id < p.capacity && given.(id) < 0 then
        given.(id) <- Bool.to_int v)
    state;
  Array.iter
    (fun (id, _) ->
      if given.(id) < 0 then
        failwith ("Simulate: missing state for latch " ^ (N.node net id).N.name);
      values.(id) <- given.(id))
    p.latches;
  eval_words p values;
  Array.map (fun w -> w land 1 <> 0) values

let step net ~pi ~state =
  let values = eval_all net ~pi ~state in
  let next =
    List.map
      (fun l -> (l.N.id, values.((N.latch_data net l).N.id)))
      (N.latches net)
  in
  let outs =
    List.map (fun (name, n) -> (name, values.(n.N.id))) (N.outputs net)
  in
  (next, outs)

let run net state vectors =
  let rec loop state acc = function
    | [] -> (state, List.rev acc)
    | pi :: rest ->
      let state', outs = step net ~pi ~state in
      loop state' (outs :: acc) rest
  in
  loop state [] vectors
