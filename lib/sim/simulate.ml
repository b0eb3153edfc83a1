module N = Netlist.Network

type tri = T0 | T1 | Tx

let tri_of_bool b = if b then T1 else T0
let tri_equal (a : tri) b = a = b

type state = (int * bool) list
type tri_state = (int * tri) list

let initial_state net =
  List.map
    (fun l ->
      match N.latch_init l with
      | N.I0 -> (l.N.id, T0)
      | N.I1 -> (l.N.id, T1)
      | N.Ix -> (l.N.id, Tx))
    (N.latches net)

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

(* --- 3-valued -------------------------------------------------------------- *)

(* SOP 3-valued evaluation: a cube is 1 if all its literals are 1, 0 if any
   literal is 0, else X; the sum is 1 if any cube is 1, 0 if all are 0,
   else X.  This is the standard conservative semantics. *)
let eval_cover3 cover point =
  let eval_cube cube =
    let result = ref T1 in
    Logic.Cube.iteri
      (fun v l ->
        match l, point.(v) with
        | Logic.Cube.Both, _ -> ()
        | Logic.Cube.One, T1 | Logic.Cube.Zero, T0 -> ()
        | Logic.Cube.One, T0 | Logic.Cube.Zero, T1 -> result := T0
        | (Logic.Cube.One | Logic.Cube.Zero), Tx ->
          if !result = T1 then result := Tx)
      cube;
    !result
  in
  List.fold_left
    (fun acc cube ->
      match acc, eval_cube cube with
      | T1, _ | _, T1 -> T1
      | Tx, _ | _, Tx -> Tx
      | T0, T0 -> T0)
    T0 cover.Logic.Cover.cubes

let eval_all3 net ~pi ~state =
  let values = Array.make (capacity net) Tx in
  List.iter (fun n -> values.(n.N.id) <- pi n.N.name) (N.inputs net);
  List.iter
    (fun n ->
      match n.N.kind with
      | N.Const b -> values.(n.N.id) <- tri_of_bool b
      | N.Input | N.Latch _ | N.Logic _ -> ())
    (N.all_nodes net);
  List.iter
    (fun l ->
      match List.assoc_opt l.N.id state with
      | Some v -> values.(l.N.id) <- v
      | None -> values.(l.N.id) <- Tx)
    (N.latches net);
  List.iter
    (fun n ->
      let point = Array.map (fun f -> values.(f)) n.N.fanins in
      values.(n.N.id) <- eval_cover3 (N.cover_of n) point)
    (N.topo_combinational net);
  values

let step3 net ~pi ~state =
  let values = eval_all3 net ~pi ~state in
  let next =
    List.map
      (fun l -> (l.N.id, values.((N.latch_data net l).N.id)))
      (N.latches net)
  in
  let outs =
    List.map (fun (name, n) -> (name, values.(n.N.id))) (N.outputs net)
  in
  (next, outs)

let synchronizing_sequence ?(max_len = 32) ?(attempts = 64) ~seed net =
  let rng = Random.State.make [| seed |] in
  let input_names = List.map (fun n -> n.N.name) (N.inputs net) in
  let all_x = List.map (fun l -> (l.N.id, Tx)) (N.latches net) in
  let all_binary state = List.for_all (fun (_, v) -> v <> Tx) state in
  let try_once () =
    let rec go state acc len =
      if all_binary state then Some (List.rev acc)
      else if len >= max_len then None
      else begin
        let vector =
          List.map (fun name -> (name, Random.State.bool rng)) input_names
        in
        let pi name = tri_of_bool (List.assoc name vector) in
        let state', _ = step3 net ~pi ~state in
        let pi_bool name = List.assoc name vector in
        go state' (pi_bool :: acc) (len + 1)
      end
    in
    go all_x [] 0
  in
  let rec search k = if k = 0 then None else
      match try_once () with Some s -> Some s | None -> search (k - 1)
  in
  search attempts
