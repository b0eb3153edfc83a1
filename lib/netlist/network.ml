type init = I0 | I1 | Ix

type binding = {
  gate_name : string;
  gate_area : float;
  gate_delay : float;
}

type kind =
  | Input
  | Const of bool
  | Logic of Logic.Cover.t
  | Latch of init

type node = {
  id : int;
  mutable name : string;
  mutable kind : kind;
  mutable fanins : int array;
  mutable fanouts : int list;
  mutable binding : binding option;
}

type t = {
  mutable nodes : node option array;
  mutable next_id : int;
  mutable model : string;
  mutable input_ids : int list;  (* reverse creation order *)
  mutable output_list : (string * int) list;  (* reverse creation order *)
  mutable name_counter : int;
  (* name of every live node, one binding per node, so [fresh_name] can skip
     taken names without a scan *)
  mutable names : (string, unit) Hashtbl.t;
  (* bumped by every mutation that can affect timing or structure *)
  mutable revision : int;
  (* bumped whenever the primary-output list changes (add/retarget/remap);
     observers caching per-output state compare against it *)
  mutable outputs_revision : int;
  (* cached combinational topological order: patched (appended) when fresh
     logic nodes are allocated, invalidated when existing structure is
     rewired.  See DESIGN.md, "Timing engine". *)
  mutable topo_valid : bool;
  mutable topo_order : node list;
  mutable topo_appends : node list;  (* newest first; spliced on demand *)
}

let create ?(name = "network") () =
  { nodes = Array.make 64 None;
    next_id = 0;
    model = name;
    input_ids = [];
    output_list = [];
    name_counter = 0;
    names = Hashtbl.create 64;
    revision = 0;
    outputs_revision = 0;
    topo_valid = false;
    topo_order = [];
    topo_appends = [] }

let model_name net = net.model

let capacity net = net.next_id

let revision net = net.revision
let outputs_revision net = net.outputs_revision

let touch net = net.revision <- net.revision + 1

let topo_invalidate net =
  if net.topo_valid then begin
    net.topo_valid <- false;
    net.topo_order <- [];
    net.topo_appends <- []
  end

let rec fresh_name net prefix =
  net.name_counter <- net.name_counter + 1;
  let name = Printf.sprintf "%s%d" prefix net.name_counter in
  if Hashtbl.mem net.names name then fresh_name net prefix else name

let alloc net name kind fanins =
  if net.next_id >= Array.length net.nodes then begin
    let b = Array.make (2 * Array.length net.nodes) None in
    Array.blit net.nodes 0 b 0 net.next_id;
    net.nodes <- b
  end;
  let n =
    { id = net.next_id; name; kind; fanins; fanouts = []; binding = None }
  in
  net.nodes.(net.next_id) <- Some n;
  net.next_id <- net.next_id + 1;
  Hashtbl.add net.names name ();
  touch net;
  (* a fresh node has no consumers yet and reads only pre-existing nodes, so
     the cached topological order extends by appending it *)
  (match kind with
   | Logic _ ->
     if net.topo_valid then net.topo_appends <- n :: net.topo_appends
   | Input | Const _ | Latch _ -> ());
  n

let node net id =
  match
    if id >= 0 && id < net.next_id then net.nodes.(id) else None
  with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Network.node: no node %d" id)

let node_opt net id =
  if id >= 0 && id < net.next_id then net.nodes.(id) else None

let add_fanout net producer_id consumer_id =
  let p = node net producer_id in
  p.fanouts <- consumer_id :: p.fanouts;
  touch net

let remove_fanout net producer_id consumer_id =
  let p = node net producer_id in
  let rec remove_one acc = function
    | [] -> failwith "Network: fanout bookkeeping broken"
    | x :: rest ->
      if x = consumer_id then List.rev_append acc rest
      else remove_one (x :: acc) rest
  in
  p.fanouts <- remove_one [] p.fanouts;
  touch net

let add_input net name =
  let n = alloc net name Input [||] in
  net.input_ids <- n.id :: net.input_ids;
  n

let add_const net value =
  let base = if value then "const1" else "const0" in
  let name = if Hashtbl.mem net.names base then fresh_name net base else base in
  alloc net name (Const value) [||]

let add_logic net ?name cover fanins =
  assert (cover.Logic.Cover.nvars = List.length fanins);
  let name = match name with Some s -> s | None -> fresh_name net "n" in
  let fanin_ids = Array.of_list (List.map (fun n -> n.id) fanins) in
  let n = alloc net name (Logic cover) fanin_ids in
  Array.iter (fun f -> add_fanout net f n.id) fanin_ids;
  n

let add_latch net ?name init data =
  let name = match name with Some s -> s | None -> fresh_name net "r" in
  let n = alloc net name (Latch init) [| data.id |] in
  add_fanout net data.id n.id;
  n

let set_output net name n =
  if List.mem_assoc name net.output_list then
    invalid_arg (Printf.sprintf "Network.set_output: duplicate output %s" name);
  net.output_list <- (name, n.id) :: net.output_list;
  net.outputs_revision <- net.outputs_revision + 1;
  touch net

let retarget_output net name n =
  if not (List.mem_assoc name net.output_list) then
    invalid_arg (Printf.sprintf "Network.retarget_output: no output %s" name);
  net.output_list <-
    List.map
      (fun (nm, id) -> if nm = name then (nm, n.id) else (nm, id))
      net.output_list;
  net.outputs_revision <- net.outputs_revision + 1;
  touch net

let fanin_nodes net n = Array.to_list n.fanins |> List.map (node net)

let inputs net = List.rev_map (node net) net.input_ids

let outputs net =
  List.rev_map (fun (name, id) -> (name, node net id)) net.output_list

let input_ids net = List.rev net.input_ids

let output_ids net = List.rev net.output_list

let live_nodes net =
  let out = ref [] in
  for id = net.next_id - 1 downto 0 do
    match net.nodes.(id) with Some n -> out := n :: !out | None -> ()
  done;
  !out

let all_nodes = live_nodes

let is_latch n = match n.kind with Latch _ -> true | Input | Const _ | Logic _ -> false
let is_logic n = match n.kind with Logic _ -> true | Input | Const _ | Latch _ -> false
let is_input n = match n.kind with Input -> true | Const _ | Logic _ | Latch _ -> false

let latches net = List.filter is_latch (live_nodes net)
let logic_nodes net = List.filter is_logic (live_nodes net)

let find_by_name net name =
  List.find_opt (fun n -> n.name = name) (live_nodes net)

let cover_of n =
  match n.kind with
  | Logic c -> c
  | Input | Const _ | Latch _ ->
    invalid_arg (Printf.sprintf "Network.cover_of: %s is not a logic node" n.name)

let latch_init n =
  match n.kind with
  | Latch i -> i
  | Input | Const _ | Logic _ ->
    invalid_arg (Printf.sprintf "Network.latch_init: %s is not a latch" n.name)

let latch_data net n =
  match n.kind with
  | Latch _ -> node net n.fanins.(0)
  | Input | Const _ | Logic _ ->
    invalid_arg (Printf.sprintf "Network.latch_data: %s is not a latch" n.name)

let num_latches net = List.length (latches net)
let num_logic net = List.length (logic_nodes net)

let drives_output net n =
  List.exists (fun (_, id) -> id = n.id) net.output_list

let set_cover net n cover =
  match n.kind with
  | Logic old ->
    assert (cover.Logic.Cover.nvars = old.Logic.Cover.nvars);
    n.kind <- Logic cover;
    n.binding <- None;
    touch net
  | Input | Const _ | Latch _ ->
    invalid_arg "Network.set_cover: not a logic node"

let set_function net n cover fanins =
  (match n.kind with
   | Logic _ -> ()
   | Input | Const _ | Latch _ ->
     invalid_arg "Network.set_function: not a logic node");
  assert (cover.Logic.Cover.nvars = List.length fanins);
  Array.iter (fun f -> remove_fanout net f n.id) n.fanins;
  n.fanins <- Array.of_list (List.map (fun m -> m.id) fanins);
  Array.iter (fun f -> add_fanout net f n.id) n.fanins;
  n.kind <- Logic cover;
  n.binding <- None;
  touch net;
  topo_invalidate net

let set_name net n name =
  Hashtbl.remove net.names n.name;
  Hashtbl.add net.names name ();
  n.name <- name

let set_name_of_model net name = net.model <- name

let become_latch net n init data =
  (match n.kind with
   | Logic _ -> ()
   | Input | Const _ | Latch _ ->
     invalid_arg "Network.become_latch: not a logic node");
  Array.iter (fun f -> remove_fanout net f n.id) n.fanins;
  n.kind <- Latch init;
  n.fanins <- [| data.id |];
  add_fanout net data.id n.id;
  n.binding <- None;
  touch net;
  topo_invalidate net

let set_binding net n b =
  n.binding <- b;
  touch net

let set_latch_init net n init =
  match n.kind with
  | Latch _ ->
    n.kind <- Latch init;
    touch net
  | Input | Const _ | Logic _ ->
    invalid_arg "Network.set_latch_init: not a latch"

let replace_fanin net n ~old_fanin ~new_fanin =
  let changed = ref false in
  Array.iteri
    (fun i f ->
      if f = old_fanin.id then begin
        n.fanins.(i) <- new_fanin.id;
        remove_fanout net old_fanin.id n.id;
        add_fanout net new_fanin.id n.id;
        changed := true
      end)
    n.fanins;
  if not !changed then
    invalid_arg
      (Printf.sprintf "Network.replace_fanin: %s is not a fanin of %s"
         old_fanin.name n.name);
  (* rewiring a latch's data pin cannot reorder the combinational DAG *)
  (match n.kind with
   | Logic _ -> topo_invalidate net
   | Input | Const _ | Latch _ -> ())

let transfer_fanouts net ~from ~to_ =
  List.iter
    (fun consumer_id ->
      let consumer = node net consumer_id in
      Array.iteri
        (fun i f -> if f = from.id then consumer.fanins.(i) <- to_.id)
        consumer.fanins;
      (match consumer.kind with
       | Logic _ -> topo_invalidate net
       | Input | Const _ | Latch _ -> ()))
    from.fanouts;
  List.iter (fun cid -> add_fanout net to_.id cid) from.fanouts;
  from.fanouts <- [];
  touch net;
  if List.exists (fun (_, id) -> id = from.id) net.output_list then begin
    net.output_list <-
      List.map
        (fun (name, id) -> if id = from.id then (name, to_.id) else (name, id))
        net.output_list;
    net.outputs_revision <- net.outputs_revision + 1
  end

let delete net n =
  if n.fanouts <> [] then
    invalid_arg (Printf.sprintf "Network.delete: %s still has fanouts" n.name);
  if drives_output net n then
    invalid_arg (Printf.sprintf "Network.delete: %s drives an output" n.name);
  Array.iter (fun f -> remove_fanout net f n.id) n.fanins;
  (match n.kind with
   | Input -> net.input_ids <- List.filter (fun id -> id <> n.id) net.input_ids
   | Const _ | Latch _ -> ()
   | Logic _ -> topo_invalidate net);
  net.nodes.(n.id) <- None;
  Hashtbl.remove net.names n.name;
  touch net

let duplicate_for net n ~consumer =
  (match n.kind with
   | Logic _ -> ()
   | Input | Const _ | Latch _ ->
     invalid_arg "Network.duplicate_for: can only duplicate logic nodes");
  let clone =
    alloc net (fresh_name net (n.name ^ "_dup")) n.kind (Array.copy n.fanins)
  in
  clone.binding <- n.binding;
  Array.iter (fun f -> add_fanout net f clone.id) clone.fanins;
  (* Rewire one consumer edge set: every fanin slot of [consumer] reading [n]
     now reads the clone. *)
  replace_fanin net consumer ~old_fanin:n ~new_fanin:clone;
  clone

(* Topological order of logic nodes; latches/inputs/constants are sources.
   [topo_recompute] always re-derives the order; [topo_combinational] serves
   it from the cache maintained by the structural editors above. *)
let topo_recompute net =
  let state = Hashtbl.create 256 in (* 0 = visiting, 1 = done *)
  let order = ref [] in
  let rec visit n =
    match n.kind with
    | Input | Const _ | Latch _ -> ()
    | Logic _ ->
      (match Hashtbl.find_opt state n.id with
       | Some 1 -> ()
       | Some _ -> failwith "Network.topo_combinational: combinational cycle"
       | None ->
         Hashtbl.add state n.id 0;
         Array.iter (fun f -> visit (node net f)) n.fanins;
         Hashtbl.replace state n.id 1;
         order := n :: !order)
  in
  List.iter visit (logic_nodes net);
  List.rev !order

let topo_combinational net =
  if net.topo_valid then begin
    if net.topo_appends <> [] then begin
      net.topo_order <- net.topo_order @ List.rev net.topo_appends;
      net.topo_appends <- []
    end;
    net.topo_order
  end
  else begin
    let order = topo_recompute net in
    net.topo_valid <- true;
    net.topo_order <- order;
    net.topo_appends <- [];
    order
  end

let transitive_fanin_cone net root =
  let state = Hashtbl.create 64 in
  let order = ref [] in
  let rec visit n =
    match n.kind with
    | Input | Const _ | Latch _ -> ()
    | Logic _ ->
      (match Hashtbl.find_opt state n.id with
       | Some 1 -> ()
       | Some _ -> failwith "Network.transitive_fanin_cone: cycle"
       | None ->
         Hashtbl.add state n.id 0;
         Array.iter (fun f -> visit (node net f)) n.fanins;
         Hashtbl.replace state n.id 1;
         order := n :: !order)
  in
  visit root;
  List.rev !order

let cone_leaves net root =
  let seen = Hashtbl.create 64 in
  let leaves = ref [] in
  let rec visit n =
    if not (Hashtbl.mem seen n.id) then begin
      Hashtbl.add seen n.id ();
      match n.kind with
      | Input | Const _ | Latch _ -> leaves := n :: !leaves
      | Logic _ -> Array.iter (fun f -> visit (node net f)) n.fanins
    end
  in
  (match root.kind with
   | Logic _ -> Array.iter (fun f -> visit (node net f)) root.fanins
   | Input | Const _ | Latch _ -> ());
  (match root.kind with
   | Logic _ -> ()
   | Input | Const _ | Latch _ -> leaves := [ root ]);
  List.rev !leaves

let eval_comb net leaf_value id =
  let cache = Hashtbl.create 64 in
  let rec go id =
    match Hashtbl.find_opt cache id with
    | Some v -> v
    | None ->
      let n = node net id in
      let v =
        match n.kind with
        | Input | Latch _ -> leaf_value id
        | Const b -> b
        | Logic cover ->
          let point = Array.map go n.fanins in
          Logic.Cover.eval cover point
      in
      Hashtbl.add cache id v;
      v
  in
  go id

let check net =
  List.iter
    (fun n ->
      (* fanin/fanout symmetry *)
      Array.iter
        (fun f ->
          let producer = node net f in
          let count_in_fanins =
            Array.fold_left (fun acc x -> if x = f then acc + 1 else acc) 0 n.fanins
          in
          let count_in_fanouts =
            List.fold_left
              (fun acc x -> if x = n.id then acc + 1 else acc)
              0 producer.fanouts
          in
          if count_in_fanins <> count_in_fanouts then
            failwith
              (Printf.sprintf "Network.check: edge %s -> %s asymmetric (%d vs %d)"
                 producer.name n.name count_in_fanins count_in_fanouts))
        n.fanins;
      match n.kind with
      | Logic c ->
        if c.Logic.Cover.nvars <> Array.length n.fanins then
          failwith (Printf.sprintf "Network.check: %s cover width mismatch" n.name)
      | Latch _ ->
        if Array.length n.fanins <> 1 then
          failwith (Printf.sprintf "Network.check: latch %s arity" n.name)
      | Input | Const _ ->
        if Array.length n.fanins <> 0 then
          failwith (Printf.sprintf "Network.check: source %s has fanins" n.name))
    (live_nodes net);
  List.iter
    (fun (_, id) -> ignore (node net id))
    net.output_list;
  (* bypass the cache: [check] must verify acyclicity from scratch *)
  ignore (topo_recompute net)

let copy net =
  let out =
    { nodes = Array.make (Array.length net.nodes) None;
      next_id = net.next_id;
      model = net.model;
      input_ids = net.input_ids;
      output_list = net.output_list;
      name_counter = net.name_counter;
      names = Hashtbl.copy net.names;
      revision = 0;
      outputs_revision = 0;
      topo_valid = false;
      topo_order = [];
      topo_appends = [] }
  in
  Array.iteri
    (fun i slot ->
      match slot with
      | None -> ()
      | Some n ->
        out.nodes.(i) <-
          Some
            { id = n.id;
              name = n.name;
              kind = n.kind;
              fanins = Array.copy n.fanins;
              fanouts = n.fanouts;
              binding = n.binding })
    net.nodes;
  out

let restore net snapshot =
  let fresh = copy snapshot in
  net.nodes <- fresh.nodes;
  net.next_id <- fresh.next_id;
  net.model <- fresh.model;
  net.input_ids <- fresh.input_ids;
  net.output_list <- fresh.output_list;
  net.name_counter <- fresh.name_counter;
  net.names <- fresh.names;
  touch net;
  net.outputs_revision <- net.outputs_revision + 1;
  topo_invalidate net

let sweep net =
  let alive n = node_opt net n.id <> None in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun n ->
        match n.kind with
        | _ when not (alive n) -> ()
        | Logic c when Array.length n.fanins > 0 ->
          (* constant fanin propagation *)
          let const_fanins =
            Array.to_list n.fanins
            |> List.mapi (fun i f -> (i, f))
            |> List.filter_map (fun (i, f) ->
                   match (node net f).kind with
                   | Const b -> Some (i, b)
                   | Input | Logic _ | Latch _ -> None)
          in
          if const_fanins <> [] then begin
            let c' =
              List.fold_left
                (fun acc (i, b) ->
                  Logic.Cover.cofactor acc i
                    (if b then Logic.Cube.One else Logic.Cube.Zero))
                c const_fanins
            in
            (* rebuild without the constant fanins *)
            let keep =
              Array.to_list n.fanins
              |> List.mapi (fun i f -> (i, f))
              |> List.filter (fun (i, _) -> not (List.mem_assoc i const_fanins))
            in
            let remap = Array.make (Array.length n.fanins) (-1) in
            List.iteri (fun j (i, _) -> remap.(i) <- j) keep;
            (* variables bound to constants do not appear in c' *)
            let safe_remap = Array.map (fun j -> max j 0) remap in
            let c'' =
              Logic.Cover.rename c' (List.length keep) safe_remap
            in
            set_function net n c'' (List.map (fun (_, f) -> node net f) keep);
            changed := true
          end
        | Input | Const _ | Latch _ | Logic _ -> ())
      (live_nodes net);
    (* fold logic nodes that became constant (including tautologous or empty
       covers that still list fanins) *)
    List.iter
      (fun n ->
        match n.kind with
        | _ when not (alive n) -> ()
        | Logic c when Logic.Cover.is_empty c || Logic.Cover.is_tautology c ->
          let value = Logic.Cover.is_tautology c in
          let replacement = add_const net value in
          transfer_fanouts net ~from:n ~to_:replacement;
          delete net n;
          changed := true
        | Logic c when Array.length n.fanins = 1 && Logic.Cover.equivalent c (Logic.Cover.var 1 0) ->
          (* buffer: forward consumers to the source *)
          let source = node net n.fanins.(0) in
          transfer_fanouts net ~from:n ~to_:source;
          delete net n;
          changed := true
        | Input | Const _ | Latch _ | Logic _ -> ())
      (live_nodes net);
    (* drop dangling nodes *)
    List.iter
      (fun n ->
        if alive n && n.fanouts = [] && not (drives_output net n)
           && not (is_input n)
        then begin
          delete net n;
          changed := true
        end)
      (live_nodes net)
  done

let lit_count net =
  List.fold_left
    (fun acc n ->
      match n.kind with
      | Logic c -> acc + Logic.Cover.lit_count c
      | Input | Const _ | Latch _ -> acc)
    0 (live_nodes net)

let area net ~latch_area ~default_gate_area =
  List.fold_left
    (fun acc n ->
      match n.kind with
      | Latch _ -> acc +. latch_area
      | Logic _ ->
        (match n.binding with
         | Some b -> acc +. b.gate_area
         | None -> acc +. default_gate_area)
      | Input | Const _ -> acc)
    0.0 (live_nodes net)

module Unsafe = struct
  let drop_fanout net ~id ~consumer =
    let n = node net id in
    let rec remove_one acc = function
      | [] -> List.rev acc
      | x :: rest ->
        if x = consumer then List.rev_append acc rest
        else remove_one (x :: acc) rest
    in
    n.fanouts <- remove_one [] n.fanouts

  let skew_cover net ~id =
    let n = node net id in
    match n.kind with
    | Logic c ->
      n.kind <- Logic { c with Logic.Cover.nvars = c.Logic.Cover.nvars + 1 }
    | Input | Const _ | Latch _ ->
      invalid_arg "Network.Unsafe.skew_cover: not a logic node"

  let redirect_fanin net ~id ~slot ~target =
    let n = node net id in
    n.fanins.(slot) <- target

  let set_latch_init_unjournaled net ~id init =
    let n = node net id in
    match n.kind with
    | Latch _ -> n.kind <- Latch init
    | Input | Const _ | Logic _ ->
      invalid_arg "Network.Unsafe.set_latch_init_unjournaled: not a latch"
end

let stats_string net =
  Printf.sprintf "%s: pi=%d po=%d latches=%d logic=%d lits=%d"
    net.model
    (List.length net.input_ids)
    (List.length net.output_list)
    (num_latches net) (num_logic net) (lit_count net)

let pp fmt net =
  Format.fprintf fmt "@[<v>%s@," (stats_string net);
  List.iter
    (fun n ->
      let kind_str =
        match n.kind with
        | Input -> "input"
        | Const b -> if b then "const1" else "const0"
        | Latch I0 -> "latch(0)"
        | Latch I1 -> "latch(1)"
        | Latch Ix -> "latch(x)"
        | Logic c -> Format.asprintf "logic[%a]" Logic.Cover.pp c
      in
      Format.fprintf fmt "  %s#%d = %s (%s)@," n.name n.id kind_str
        (String.concat ","
           (List.map (fun f -> (node net f).name) (Array.to_list n.fanins))))
    (live_nodes net);
  Format.fprintf fmt "@]"
