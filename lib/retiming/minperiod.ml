module N = Netlist.Network

type failure =
  | Too_large of int
  | Infeasible
  | Init_state of string
  | Stuck of string

let failure_message = function
  | Too_large n -> Printf.sprintf "retiming graph too large (%d vertices)" n
  | Infeasible -> "no retiming achieves the target period"
  | Init_state msg -> "initial state: " ^ msg
  | Stuck msg -> "move sequencing stuck: " ^ msg

(* --- retiming graph -------------------------------------------------------- *)

type graph = {
  nv : int;                          (* vertex count; vertex 0 is the host *)
  delay : float array;               (* per vertex *)
  edges : (int * int * int) list;    (* (u, v, weight) *)
  node_of_vertex : int array;        (* vertex -> node id; -1 for host *)
}

(* Walk back through a latch chain; return (source node, latch count).
   A pure register ring (latches forming a cycle with no logic) has no
   combinational source: report [None] and let the caller treat the signal
   as coming from the environment — its registers cannot be moved by any
   retiming of logic vertices anyway. *)
let chase net start count0 =
  let rec go node count seen =
    match node.N.kind with
    | N.Latch _ ->
      if List.mem node.N.id seen then (None, count)
      else go (N.latch_data net node) (count + 1) (node.N.id :: seen)
    | N.Input | N.Const _ | N.Logic _ -> (Some node, count)
  in
  go start count0 []

let build_graph net model =
  let logic = N.logic_nodes net in
  let nv = List.length logic + 1 in
  let vertex_of_node = Hashtbl.create 64 in
  let node_of_vertex = Array.make nv (-1) in
  List.iteri
    (fun i n ->
      Hashtbl.add vertex_of_node n.N.id (i + 1);
      node_of_vertex.(i + 1) <- n.N.id)
    logic;
  let delay = Array.make nv 0.0 in
  List.iter
    (fun n -> delay.(Hashtbl.find vertex_of_node n.N.id) <- model n)
    logic;
  let edges = ref [] in
  let vertex_of net_node =
    match net_node.N.kind with
    | N.Logic _ -> Hashtbl.find vertex_of_node net_node.N.id
    | N.Input | N.Const _ -> 0
    | N.Latch _ -> assert false
  in
  List.iter
    (fun v ->
      Array.iter
        (fun fid ->
          let source, w = chase net (N.node net fid) 0 in
          let u =
            match source with Some s -> vertex_of s | None -> 0
          in
          edges := (u, Hashtbl.find vertex_of_node v.N.id, w) :: !edges)
        v.N.fanins)
    logic;
  (* primary outputs back to the host *)
  List.iter
    (fun (_, driver) ->
      match chase net driver 0 with
      | Some ({ N.kind = N.Logic _; _ } as source), w ->
        edges := (vertex_of source, 0, w) :: !edges
      | Some _, _ | None, _ -> ())
    (N.outputs net);
  { nv; delay; edges = !edges; node_of_vertex }

(* --- W and D matrices ------------------------------------------------------ *)

let big = max_int / 4

(* Lexicographic shortest paths: W = min registers over paths, D = max delay
   among minimum-register paths (delays of both endpoints included).  The
   host (vertex 0) is never an intermediate vertex: a PO-to-PI hop through
   the environment is not a combinational timing path, so it must not
   generate period constraints. *)
let wd_matrices g =
  let w = Array.make_matrix g.nv g.nv big in
  let d = Array.make_matrix g.nv g.nv neg_infinity in
  List.iter
    (fun (u, v, wt) ->
      if wt < w.(u).(v) || (wt = w.(u).(v) && g.delay.(u) > d.(u).(v)) then begin
        w.(u).(v) <- wt;
        d.(u).(v) <- g.delay.(u)
      end)
    g.edges;
  for k = 1 to g.nv - 1 do
    for u = 0 to g.nv - 1 do
      if w.(u).(k) < big then
        for v = 0 to g.nv - 1 do
          if w.(k).(v) < big then begin
            let nw = w.(u).(k) + w.(k).(v) in
            let nd = d.(u).(k) +. d.(k).(v) in
            if nw < w.(u).(v) || (nw = w.(u).(v) && nd > d.(u).(v)) then begin
              w.(u).(v) <- nw;
              d.(u).(v) <- nd
            end
          end
        done
    done
  done;
  let dd = Array.make_matrix g.nv g.nv neg_infinity in
  for u = 0 to g.nv - 1 do
    for v = 0 to g.nv - 1 do
      if w.(u).(v) < big then dd.(u).(v) <- d.(u).(v) +. g.delay.(v)
    done
  done;
  (w, dd)

(* True when the predecessor links ([-1] = none) contain a cycle. *)
let has_cycle pred =
  let n = Array.length pred in
  (* 0 = unvisited, 1 = on the current walk, 2 = known acyclic *)
  let state = Array.make n 0 in
  let rec walk v =
    if v < 0 || state.(v) = 2 then false
    else if state.(v) = 1 then true
    else begin
      state.(v) <- 1;
      let cyclic = walk pred.(v) in
      state.(v) <- 2;
      cyclic
    end
  in
  let rec from v = v < n && (walk v || from (v + 1)) in
  from 0

(* Solve r(u) - r(v) <= c_{uv} by Bellman-Ford; None on negative cycle.
   Each relaxation records v as u's predecessor.  A cycle among those
   links is always a negative cycle (CLRS Lemma 24.16), so an infeasible
   system stops at the first round that closes one instead of running to
   the round bound; feasible systems relax exactly as without the check. *)
let solve_constraints nv constraints =
  let r = Array.make nv 0 in
  let pred = Array.make nv (-1) in
  let changed = ref true in
  let cyclic = ref false in
  let iterations = ref 0 in
  while !changed && (not !cyclic) && !iterations <= nv + 2 do
    changed := false;
    incr iterations;
    List.iter
      (fun (u, v, c) ->
        if r.(u) > r.(v) + c then begin
          r.(u) <- r.(v) + c;
          pred.(u) <- v;
          changed := true
        end)
      constraints;
    if !changed then cyclic := has_cycle pred
  done;
  if !changed then None
  else begin
    let shift = r.(0) in
    Some (Array.map (fun x -> x - shift) r)
  end

let feasible_retiming g (w, d) target =
  let constraints = ref [] in
  List.iter (fun (u, v, wt) -> constraints := (u, v, wt) :: !constraints) g.edges;
  for u = 0 to g.nv - 1 do
    for v = 0 to g.nv - 1 do
      if d.(u).(v) > target +. 1e-9 && w.(u).(v) < big then
        constraints := (u, v, w.(u).(v) - 1) :: !constraints
    done
  done;
  solve_constraints g.nv !constraints

let candidate_periods g (_, d) =
  let set = Hashtbl.create 64 in
  for u = 0 to g.nv - 1 do
    for v = 0 to g.nv - 1 do
      if d.(u).(v) > neg_infinity then Hashtbl.replace set d.(u).(v) ()
    done
  done;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) set [])

(* --- realization by atomic moves ------------------------------------------- *)

let realize net g r =
  (* remaining(v) > 0: v needs backward moves; < 0: forward moves *)
  let remaining = Hashtbl.create 64 in
  Array.iteri
    (fun vertex node_id ->
      if vertex > 0 && r.(vertex) <> 0 then
        Hashtbl.replace remaining node_id r.(vertex))
    g.node_of_vertex;
  (* lint-waive: nondet/hashtbl-order — scan order only schedules moves:
     every vertex performs exactly |r(v)| moves before the loop ends, so
     the final register placement is order-independent. *)
  let node_ids = Hashtbl.fold (fun id _ acc -> id :: acc) remaining [] in
  let total () = Hashtbl.fold (fun _ v acc -> acc + abs v) remaining 0 in (* lint-waive: nondet/hashtbl-order — commutative sum *)
  let budget = ref (4 * (total () + 1)) in
  let result = ref (Ok ()) in
  while total () > 0 && !result = Ok () && !budget > 0 do
    decr budget;
    let progress = ref false in
    List.iter
      (fun node_id ->
        let count =
          match Hashtbl.find_opt remaining node_id with Some c -> c | None -> 0
        in
        if !result = Ok () && count <> 0 then begin
          match N.node_opt net node_id with
          | None -> Hashtbl.replace remaining node_id 0
          | Some v ->
            if count < 0 && Moves.is_forward_retimable net v then begin
              match Moves.forward_across_node net v with
              | Ok _ ->
                Hashtbl.replace remaining node_id (count + 1);
                progress := true
              | Error e -> result := Error (Stuck (Moves.error_message e))
            end
            else if count > 0 && Moves.is_backward_retimable net v then begin
              match Moves.backward_across_node net v with
              | Ok _ ->
                Hashtbl.replace remaining node_id (count - 1);
                progress := true
              | Error (Moves.No_initial_state msg) ->
                result := Error (Init_state msg)
              | Error (Moves.Not_retimable msg) -> result := Error (Stuck msg)
            end
        end)
      node_ids;
    if (not !progress) && total () > 0 && !result = Ok () then
      result := Error (Stuck "no applicable atomic move")
  done;
  if !result = Ok () && total () > 0 then Error (Stuck "budget exhausted")
  else (match !result with Ok () -> Ok () | Error e -> Error e)

(* --- public entry points ---------------------------------------------------- *)

let retime_with g wd net target =
  match feasible_retiming g wd target with
  | None -> Error Infeasible
  | Some r ->
    (* The copied network has identical node ids, so the graph tables remain
       valid for it. *)
    let copy = N.copy net in
    (match realize copy g r with
     | Ok () ->
       N.sweep copy;
       Ok copy
     | Error e -> Error e)

(* Index of the smallest candidate period [feasible] accepts.  Feasibility
   is monotone in the period, so the largest candidate is probed first and
   then the range is bisected; None when even the largest fails. *)
let smallest_feasible candidates feasible =
  let n = Array.length candidates in
  if n = 0 || not (feasible candidates.(n - 1)) then None
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if feasible candidates.(mid) then hi := mid else lo := mid + 1
    done;
    Some !lo
  end

let min_period g wd feasible =
  let candidates = Array.of_list (candidate_periods g wd) in
  if Array.length candidates = 0 then Ok 0.0
  else
    match smallest_feasible candidates feasible with
    | Some i -> Ok candidates.(i)
    | None -> Error Infeasible

(* Effort cap: the W/D matrices are dense in the vertex count. *)
let max_vertices = 1200

let with_graph net model k =
  let g = build_graph net model in
  if g.nv > max_vertices then Error (Too_large g.nv) else k g (wd_matrices g)

let min_feasible_period net model =
  with_graph net model (fun g wd ->
      min_period g wd (fun c -> feasible_retiming g wd c <> None))

let retime net ~model ~target =
  with_graph net model (fun g wd -> retime_with g wd net target)

let retime_min_period ?current_period net ~model =
  with_graph net model (fun g wd ->
      let current =
        match current_period with
        | Some p -> p
        | None -> Sta.clock_period net model
      in
      let candidates =
        Array.of_list
          (List.filter (fun c -> c < current -. 1e-9) (candidate_periods g wd))
      in
      (* the smallest graph-feasible candidate, then upward until one is
         also realizable (initial states computable) *)
      let rec walk_up i =
        if i >= Array.length candidates then Error Infeasible
        else
          match retime_with g wd net candidates.(i) with
          | Ok net' -> Ok (net', candidates.(i))
          | Error (Init_state _ | Stuck _ | Infeasible) -> walk_up (i + 1)
          | Error (Too_large _) as e -> e
      in
      match
        smallest_feasible candidates (fun c -> feasible_retiming g wd c <> None)
      with
      | Some i -> walk_up i
      | None -> Error Infeasible)

module Internal = struct
  type nonrec graph = graph = {
    nv : int;
    delay : float array;
    edges : (int * int * int) list;
    node_of_vertex : int array;
  }

  let build_graph = build_graph
  let wd_matrices = wd_matrices
  let min_period = min_period
end
