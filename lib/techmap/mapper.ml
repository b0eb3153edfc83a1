module N = Netlist.Network

let nand2_cover = Logic.Cover.of_strings 2 [ "0-"; "-0" ]
let inv_cover = Logic.Cover.of_strings 1 [ "0" ]

(* --- subject graph -------------------------------------------------------- *)

(* Build a NAND2/INV network.  Signals are (node, inverted) pairs; a
   structural hash shares identical NANDs and inverters.  Its key is the
   fanin id pair, [(a, -1)] for an inverter of [a]. *)
type subject_builder = {
  out : N.t;
  hash : (int * int, N.node) Hashtbl.t;
}

let sb_inv sb a =
  let key = (a.N.id, -1) in
  match Hashtbl.find_opt sb.hash key with
  | Some n -> n
  | None ->
    let n = N.add_logic sb.out inv_cover [ a ] in
    Hashtbl.add sb.hash key n;
    n

let sb_nand sb a b =
  let x, y = if a.N.id <= b.N.id then (a, b) else (b, a) in
  let key = (x.N.id, y.N.id) in
  match Hashtbl.find_opt sb.hash key with
  | Some n -> n
  | None ->
    let n = N.add_logic sb.out nand2_cover [ x; y ] in
    Hashtbl.add sb.hash key n;
    n

(* Signal with polarity: force to positive polarity inserting an inverter. *)
let as_pos sb (node, inverted) = if inverted then sb_inv sb node else node

let as_neg sb (node, inverted) = if inverted then node else sb_inv sb node

(* Balanced reduction keeps subject-graph depth logarithmic. *)
let rec balanced_reduce f = function
  | [] -> invalid_arg "balanced_reduce: empty"
  | [ x ] -> x
  | items ->
    let rec pair = function
      | [] -> []
      | [ x ] -> [ x ]
      | x :: y :: rest -> f x y :: pair rest
    in
    balanced_reduce f (pair items)

(* AND of signals -> signal: and(a, b) = (nand(a, b), inverted) *)
let sig_and sb a b = (sb_nand sb (as_pos sb a) (as_pos sb b), true)

(* OR via De Morgan: or(a, b) = nand(a', b') *)
let sig_or sb a b = (sb_nand sb (as_neg sb a) (as_neg sb b), false)

let rec expr_to_subject sb env expr =
  match expr with
  | Logic.Factor.Const b -> `Const b
  | Logic.Factor.Lit (v, phase) -> `Sig (env.(v), not phase)
  | Logic.Factor.And es ->
    let parts = List.map (expr_to_subject sb env) es in
    if List.exists (fun p -> p = `Const false) parts then `Const false
    else begin
      let signals = signals_of_parts parts in
      match signals with
      | [] -> `Const true
      | _ :: _ ->
        let s = balanced_reduce (sig_and sb) signals in
        `Sig s
    end
  | Logic.Factor.Or es ->
    let parts = List.map (expr_to_subject sb env) es in
    if List.exists (fun p -> p = `Const true) parts then `Const true
    else begin
      let signals = signals_of_parts parts in
      match signals with
      | [] -> `Const false
      | _ :: _ -> `Sig (balanced_reduce (sig_or sb) signals)
    end

(* Order operands so that register outputs pair with each other in the
   balanced tree: gates reading two registers are exactly what retiming-based
   optimization (and the resynthesis technique downstream) can move across. *)
and signals_of_parts parts =
  let signals =
    List.filter_map
      (function `Sig (n, inv) -> Some (n, inv) | `Const _ -> None)
      parts
  in
  let is_reg (n, _) =
    match n.N.kind with
    | N.Latch _ -> true
    | N.Input | N.Const _ | N.Logic _ -> false
  in
  let regs, others = List.partition is_reg signals in
  regs @ others

let subject_graph net =
  let out = N.create ~name:(N.model_name net) () in
  let sb = { out; hash = Hashtbl.create 256 } in
  let mapping = Hashtbl.create 256 in (* old id -> new node *)
  (* inputs *)
  List.iter
    (fun n -> Hashtbl.add mapping n.N.id (N.add_input out n.N.name))
    (N.inputs net);
  (* placeholder latches so feedback resolves: create with dummy const data,
     rewire after logic is built *)
  let const0 = lazy (N.add_const out false) in
  List.iter
    (fun l ->
      let placeholder =
        N.add_latch out ~name:l.N.name (N.latch_init l) (Lazy.force const0)
      in
      Hashtbl.add mapping l.N.id placeholder)
    (N.latches net);
  List.iter
    (fun n ->
      match n.N.kind with
      | N.Const b -> Hashtbl.add mapping n.N.id (N.add_const out b)
      | N.Input | N.Latch _ | N.Logic _ -> ())
    (N.all_nodes net);
  (* logic in topological order *)
  List.iter
    (fun n ->
      let env =
        Array.map (fun f -> Hashtbl.find mapping f) n.N.fanins
      in
      let expr = Logic.Factor.good_factor (N.cover_of n) in
      let result =
        match expr_to_subject sb env expr with
        | `Const b -> N.add_const out b
        | `Sig s -> as_pos sb s
      in
      Hashtbl.add mapping n.N.id result)
    (N.topo_combinational net);
  (* rewire latch data inputs *)
  List.iter
    (fun l ->
      let new_latch = Hashtbl.find mapping l.N.id in
      let data = Hashtbl.find mapping (N.latch_data net l).N.id in
      N.replace_fanin out new_latch
        ~old_fanin:(N.latch_data out new_latch)
        ~new_fanin:data)
    (N.latches net);
  (* outputs *)
  List.iter
    (fun (name, driver) ->
      N.set_output out name (Hashtbl.find mapping driver.N.id))
    (N.outputs net);
  N.sweep out;
  out

(* --- tree covering -------------------------------------------------------- *)

type match_result = {
  gate : Genlib.gate;
  leaves : N.node array;  (** subject nodes bound to pattern leaves *)
}

let node_is_inv n =
  match n.N.kind with
  | N.Logic c ->
    Array.length n.N.fanins = 1 && Logic.Cover.equivalent c inv_cover
  | N.Input | N.Const _ | N.Latch _ -> false

let node_is_nand n =
  match n.N.kind with
  | N.Logic c -> Array.length n.N.fanins = 2 && Logic.Cover.equivalent c nand2_cover
  | N.Input | N.Const _ | N.Latch _ -> false

(* What a pattern step asks of a subject node, tagged once per node before
   the covering: its gate, and whether it is a tree boundary (not a
   single-fanout logic node: PIs, constants, latches and multi-fanout logic
   nodes). *)
type shape = Inv_node | Nand_node | Other_node

type tags = { shape : shape array; boundary : bool array }

let tag_nodes net cap =
  let shape = Array.make cap Other_node and boundary = Array.make cap true in
  let drives = Array.make cap false in
  List.iter (fun (_, d) -> drives.(d.N.id) <- true) (N.outputs net);
  List.iter
    (fun n ->
      match n.N.kind with
      | N.Input | N.Const _ | N.Latch _ -> ()
      | N.Logic _ ->
        shape.(n.N.id) <-
          (if node_is_inv n then Inv_node
           else if node_is_nand n then Nand_node
           else Other_node);
        boundary.(n.N.id) <-
          List.length n.N.fanouts + (if drives.(n.N.id) then 1 else 0) <> 1)
    (N.all_nodes net);
  { shape; boundary }

(* Try to match [pattern] rooted at subject node [n].  Interior pattern
   positions may only consume single-fanout logic nodes (except the root).
   Returns all leaf bindings (there may be several for commutative NANDs; we
   return the list and let the DP pick the best). *)
let matches net tags gate n =
  let fits shape node is_root =
    tags.shape.(node.N.id) = shape && (is_root || not tags.boundary.(node.N.id))
  in
  let results = ref [] in
  let rec go pattern node is_root bindings k =
    (* k: continuation taking updated bindings *)
    match pattern with
    | Genlib.Leaf i ->
      (match bindings.(i) with
       | Some bound -> if bound == node then k bindings
       | None ->
         let b = Array.copy bindings in
         b.(i) <- Some node;
         k b)
    | Genlib.Inv p ->
      if fits Inv_node node is_root then
        go p (N.node net node.N.fanins.(0)) false bindings k
    | Genlib.Nand (p1, p2) ->
      if fits Nand_node node is_root then begin
        let a = N.node net node.N.fanins.(0)
        and b = N.node net node.N.fanins.(1) in
        go p1 a false bindings (fun bnd -> go p2 b false bnd k);
        go p1 b false bindings (fun bnd -> go p2 a false bnd k)
      end
  in
  let empty = Array.make gate.Genlib.ninputs None in
  go gate.Genlib.pattern n true empty (fun bindings ->
      let leaves =
        Array.map
          (function Some x -> x | None -> raise Exit)
          bindings
      in
      results := { gate; leaves } :: !results);
  !results

exception Unmappable of string

let cover_tree net lib =
  (* DP over topological order: best match and arrival cost per logic node. *)
  let cap = N.capacity net in
  let tags = tag_nodes net cap in
  (* A node is tried only against the gates whose pattern root fits its
     shape, in library order. *)
  let gates_for shape =
    List.filter
      (fun g ->
        match g.Genlib.pattern with
        | Genlib.Leaf _ -> true
        | Genlib.Inv _ -> shape = Inv_node
        | Genlib.Nand _ -> shape = Nand_node)
      lib.Genlib.gates
  in
  let inv_gates = gates_for Inv_node
  and nand_gates = gates_for Nand_node
  and other_gates = gates_for Other_node in
  let best : match_result option array = Array.make cap None in
  (* (arrival, gate count) compared lexicographically: the secondary component
     breaks ties toward matches that consume more subject nodes. *)
  let cost = Array.make cap (infinity, infinity) in
  let leaf_cost n =
    match n.N.kind with
    | N.Input | N.Const _ | N.Latch _ -> (0.0, 0.0)
    | N.Logic _ -> cost.(n.N.id)
  in
  List.iter
    (fun n ->
      let gates =
        match tags.shape.(n.N.id) with
        | Inv_node -> inv_gates
        | Nand_node -> nand_gates
        | Other_node -> other_gates
      in
      let candidates =
        List.concat_map (fun g -> try matches net tags g n with Exit -> []) gates
      in
      List.iter
        (fun m ->
          let leaf_costs = Array.map leaf_cost m.leaves in
          let gates =
            Array.fold_left (fun acc (_, g) -> acc +. g) 1.0 leaf_costs
          in
          let arrival =
            m.gate.Genlib.delay
            +. Array.fold_left (fun acc (p, _) -> max acc p) 0.0 leaf_costs
          in
          if (arrival, gates) < cost.(n.N.id) then begin
            cost.(n.N.id) <- (arrival, gates);
            best.(n.N.id) <- Some m
          end)
        candidates;
      if best.(n.N.id) = None then begin
        Obs.Metrics.incr (Obs.Metrics.counter "techmap.unmappable");
        raise (Unmappable (Printf.sprintf "no match at subject node %s" n.N.name))
      end)
    (N.topo_combinational net);
  best

(* --- mapping statistics --------------------------------------------------- *)

(* Aggregated over every [map] call in the process; counter updates are
   atomic and commute, so totals are identical at any [--jobs N].  Per-cell
   instantiation counts live directly in the obs registry
   ([techmap.cell.<gate>]); the float area total is kept here in milli-units
   and turned into a gauge by [publish_stats]. *)
let m_maps = Obs.Metrics.counter "techmap.maps"
let total_cells = Atomic.make 0
let total_area_milli = Atomic.make 0

let record_stats out ~lib =
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr m_maps;
    List.iter
      (fun n ->
        match n.N.binding with
        | Some b ->
          Obs.Metrics.incr (Obs.Metrics.counter ("techmap.cell." ^ b.N.gate_name));
          Atomic.incr total_cells
        | None -> ())
      (N.all_nodes out);
    let area = N.area out ~latch_area:lib.Genlib.latch_area ~default_gate_area:2.0 in
    ignore
      (Atomic.fetch_and_add total_area_milli
         (int_of_float (Float.round (area *. 1000.))))
  end

let publish_stats () =
  Obs.Metrics.set_gauge
    (Obs.Metrics.gauge "techmap.mapped_cells")
    (float_of_int (Atomic.get total_cells));
  Obs.Metrics.set_gauge
    (Obs.Metrics.gauge "techmap.mapped_area_total")
    (float_of_int (Atomic.get total_area_milli) /. 1000.)

let map net ~lib =
  let subject = subject_graph net in
  let best = cover_tree subject lib in
  let out = N.create ~name:(N.model_name subject) () in
  let mapping = Hashtbl.create 256 in
  List.iter
    (fun n -> Hashtbl.add mapping n.N.id (N.add_input out n.N.name))
    (N.inputs subject);
  let const0 = lazy (N.add_const out false) in
  List.iter
    (fun l ->
      let nl = N.add_latch out ~name:l.N.name (N.latch_init l) (Lazy.force const0) in
      N.set_binding out nl
        (Some { N.gate_name = "dff"; gate_area = lib.Genlib.latch_area;
                gate_delay = 0.0 });
      Hashtbl.add mapping l.N.id nl)
    (N.latches subject);
  List.iter
    (fun n ->
      match n.N.kind with
      | N.Const b -> Hashtbl.add mapping n.N.id (N.add_const out b)
      | N.Input | N.Latch _ | N.Logic _ -> ())
    (N.all_nodes subject);
  (* instantiate gates for needed boundary roots, recursively *)
  let rec realize n =
    match Hashtbl.find_opt mapping n.N.id with
    | Some mapped -> mapped
    | None ->
      (match n.N.kind with
       | N.Input | N.Const _ | N.Latch _ ->
         failwith "Mapper.map: source not pre-registered"
       | N.Logic _ ->
         (match best.(n.N.id) with
          | None -> failwith "Mapper.map: uncovered node"
          | Some m ->
            let fanins =
              Array.to_list (Array.map realize m.leaves)
            in
            let g = m.gate in
            let node =
              N.add_logic out ~name:n.N.name g.Genlib.cover fanins
            in
            N.set_binding out node
              (Some { N.gate_name = g.Genlib.gate_name;
                      gate_area = g.Genlib.area;
                      gate_delay = g.Genlib.delay });
            Hashtbl.add mapping n.N.id node;
            node))
  in
  List.iter
    (fun (name, driver) -> N.set_output out name (realize driver))
    (N.outputs subject);
  List.iter
    (fun l ->
      let data = realize (N.latch_data subject l) in
      let nl = Hashtbl.find mapping l.N.id in
      N.replace_fanin out nl ~old_fanin:(N.latch_data out nl) ~new_fanin:data)
    (N.latches subject);
  N.sweep out;
  record_stats out ~lib;
  out

let mapped_area net ~lib =
  N.area net ~latch_area:lib.Genlib.latch_area ~default_gate_area:2.0
