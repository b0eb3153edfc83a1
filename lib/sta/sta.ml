module N = Netlist.Network

type model = N.node -> float

let unit_delay (n : N.node) =
  match n.N.kind with
  | N.Logic _ -> 1.0
  | N.Input | N.Const _ | N.Latch _ -> 0.0

let mapped_delay ?(default = 1.0) () (n : N.node) =
  match n.N.kind with
  | N.Logic _ ->
    (match n.N.binding with Some b -> b.N.gate_delay | None -> default)
  | N.Input | N.Const _ | N.Latch _ -> 0.0

type timing = {
  arrival : float array;
  period : float;
  critical_end : int;
}

let analyze net model =
  let arrival = Array.make (N.capacity net) neg_infinity in
  List.iter
    (fun n ->
      match n.N.kind with
      | N.Input | N.Const _ | N.Latch _ -> arrival.(n.N.id) <- 0.0
      | N.Logic _ -> ())
    (N.all_nodes net);
  List.iter
    (fun n ->
      let worst =
        Array.fold_left
          (fun acc f -> max acc arrival.(f))
          0.0 n.N.fanins
      in
      arrival.(n.N.id) <- worst +. model n)
    (N.topo_combinational net);
  (* end points: PO drivers and latch data inputs *)
  let period = ref 0.0 and critical_end = ref (-1) in
  let consider id =
    if !critical_end < 0 || arrival.(id) > arrival.(!critical_end) then
      critical_end := id;
    if arrival.(id) > !period then period := arrival.(id)
  in
  List.iter (fun (_, n) -> consider n.N.id) (N.outputs net);
  List.iter (fun l -> consider (N.latch_data net l).N.id) (N.latches net);
  { arrival; period = !period; critical_end = !critical_end }

let clock_period net model = (analyze net model).period

let critical_path net model =
  let t = analyze net model in
  if t.critical_end < 0 then []
  else begin
    let rec walk id acc =
      let n = N.node net id in
      match n.N.kind with
      | N.Input | N.Const _ | N.Latch _ -> acc
      | N.Logic _ ->
        let acc = n :: acc in
        if Array.length n.N.fanins = 0 then acc
        else begin
          let best = ref n.N.fanins.(0) in
          Array.iter
            (fun f -> if t.arrival.(f) > t.arrival.(!best) then best := f)
            n.N.fanins;
          walk !best acc
        end
    in
    walk t.critical_end []
  end

let slack net model ~required =
  let t = analyze net model in
  let cap = Array.length t.arrival in
  let required_at = Array.make cap infinity in
  let set_req id r = if r < required_at.(id) then required_at.(id) <- r in
  List.iter (fun (_, n) -> set_req n.N.id required) (N.outputs net);
  List.iter
    (fun l -> set_req (N.latch_data net l).N.id required)
    (N.latches net);
  let rev_topo = List.rev (N.topo_combinational net) in
  List.iter
    (fun n ->
      let req = required_at.(n.N.id) in
      let fanin_req = req -. model n in
      Array.iter (fun f -> set_req f fanin_req) n.N.fanins)
    rev_topo;
  Array.init cap (fun id ->
      if t.arrival.(id) = neg_infinity then infinity
      else required_at.(id) -. t.arrival.(id))
