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
   generate period constraints.  The delays are decimal, so D's bits depend
   on how its sums associate: the relaxation keeps Floyd-Warshall's order,
   d(u,k) + d(k,v) with k outermost, and adds v's delay last.  D is
   [neg_infinity] exactly where W is [big]. *)
let wd_matrices g =
  let n = g.nv in
  let w = Array.make_matrix n n big in
  let d = Array.make_matrix n n neg_infinity in
  List.iter
    (fun (u, v, wt) ->
      if wt < w.(u).(v) || (wt = w.(u).(v) && g.delay.(u) > d.(u).(v)) then begin
        w.(u).(v) <- wt;
        d.(u).(v) <- g.delay.(u)
      end)
    g.edges;
  (* row k's finite columns, rebuilt for each intermediate k *)
  let cols = Array.make n 0 in
  for k = 1 to n - 1 do
    let wk = w.(k) and dk = d.(k) in
    let m = ref 0 in
    Array.iteri
      (fun v wkv ->
        if wkv < big then begin
          cols.(!m) <- v;
          incr m
        end)
      wk;
    (* W(k,k) >= 1, since a register-free cycle would be a combinational
       loop: neither row k nor column k changes while k is the
       intermediate, so both are read once.  Every index below is a vertex
       (< n), hence the unchecked accesses. *)
    for u = 0 to n - 1 do
      let wu = w.(u) and du = d.(u) in
      let wuk = wu.(k) and duk = du.(k) in
      if wuk < big then
        for j = 0 to !m - 1 do
          let v = Array.unsafe_get cols j in
          let nw = wuk + Array.unsafe_get wk v in
          let wuv = Array.unsafe_get wu v in
          if nw < wuv then begin
            Array.unsafe_set wu v nw;
            Array.unsafe_set du v (duk +. Array.unsafe_get dk v)
          end
          else if nw = wuv then begin
            let nd = duk +. Array.unsafe_get dk v in
            if nd > Array.unsafe_get du v then Array.unsafe_set du v nd
          end
        done
    done
  done;
  for u = 0 to n - 1 do
    let du = d.(u) in
    for v = 0 to n - 1 do
      du.(v) <- du.(v) +. g.delay.(v)
    done
  done;
  (w, d)

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

let m_probes = Obs.Metrics.counter "retiming.probes"
let m_realizations = Obs.Metrics.counter "retiming.realizations"
let m_realizations_skipped = Obs.Metrics.counter "retiming.realizations_skipped"

(* Solve r(u) - r(v) <= c_{uv} by Bellman-Ford over the edge constraints
   (u, v, w(e)) and the period constraints (u, v, W(u,v) - 1) for every
   D(u,v) > target, read straight off the W/D rows; None on a negative
   cycle.  Started from r = 0, relaxation converges to the greatest
   solution <= 0 whatever the order, so no constraint list is needed.  Each
   relaxation records v as u's predecessor.  A cycle among those links is
   always a negative cycle (CLRS Lemma 24.16), so an infeasible system
   stops at the first round that closes one instead of running to the
   round bound; feasible systems relax exactly as without the check. *)
let feasible_retiming g (w, d) target =
  Obs.Metrics.incr m_probes;
  let nv = g.nv in
  let bound = target +. 1e-9 in
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
      g.edges;
    for u = 0 to nv - 1 do
      let wu = w.(u) and du = d.(u) in
      for v = 0 to nv - 1 do
        if du.(v) > bound && r.(u) > r.(v) + wu.(v) - 1 then begin
          r.(u) <- r.(v) + wu.(v) - 1;
          pred.(u) <- v;
          changed := true
        end
      done
    done;
    if !changed then cyclic := has_cycle pred
  done;
  if !changed then None
  else begin
    let shift = r.(0) in
    Some (Array.map (fun x -> x - shift) r)
  end

(* The distinct finite D values, ascending.  D holds up to V^2 entries but
   few distinct ones: they are collected unboxed in an open-addressing set
   (NaN marks a free slot; D never holds NaN), and only they are sorted. *)
let candidate_periods (_, d) =
  let slot keys x =
    (* + 0.0 sends -0.0 to 0.0, which [Float.equal] does not tell apart *)
    let b = Int64.to_int (Int64.bits_of_float (x +. 0.0)) in
    let h = (b lxor (b lsr 32)) * 0x9E3779B97F4A7C1 in
    let mask = Array.length keys - 1 in
    let i = ref ((h lxor (h lsr 29)) land mask) in
    while not (Float.is_nan keys.(!i) || Float.equal keys.(!i) x) do
      i := (!i + 1) land mask
    done;
    !i
  in
  let keys = ref (Array.make 256 nan) and size = ref 0 in
  let add x =
    let i = slot !keys x in
    if Float.is_nan !keys.(i) then begin
      !keys.(i) <- x;
      incr size;
      if 2 * !size > Array.length !keys then begin
        let old = !keys in
        keys := Array.make (2 * Array.length old) nan;
        Array.iter
          (fun k -> if not (Float.is_nan k) then !keys.(slot !keys k) <- k)
          old
      end
    end
  in
  Array.iter (Array.iter (fun x -> if x > neg_infinity then add x)) d;
  let values = Array.make !size 0.0 and n = ref 0 in
  Array.iter
    (fun k ->
      if not (Float.is_nan k) then begin
        values.(!n) <- k;
        incr n
      end)
    !keys;
  Array.sort Float.compare values;
  Array.to_list values

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

(* Realize labelling [r] on a copy of [net].  The copied network has
   identical node ids, so the graph tables remain valid for it. *)
let realize_copy g net r =
  Obs.Metrics.incr m_realizations;
  let copy = N.copy net in
  match realize copy g r with
  | Ok () ->
    N.sweep copy;
    Ok copy
  | Error e -> Error e

let retime_with g wd net target =
  match feasible_retiming g wd target with
  | None -> Error Infeasible
  | Some r -> realize_copy g net r

(* Index of the smallest of [n] candidates [feasible] accepts.  Feasibility
   is monotone in the period, so the largest candidate is probed first and
   then the range is bisected, each index at most once; None when even the
   largest fails. *)
let smallest_feasible n feasible =
  if n = 0 || not (feasible (n - 1)) then None
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if feasible mid then hi := mid else lo := mid + 1
    done;
    Some !lo
  end

let min_period wd feasible =
  let candidates = Array.of_list (candidate_periods wd) in
  if Array.length candidates = 0 then Ok 0.0
  else
    match
      smallest_feasible (Array.length candidates) (fun i ->
          feasible candidates.(i))
    with
    | Some i -> Ok candidates.(i)
    | None -> Error Infeasible

(* Effort cap: the W/D matrices are dense in the vertex count. *)
let max_vertices = 1200

let with_graph net model k =
  let g = build_graph net model in
  if g.nv > max_vertices then Error (Too_large g.nv) else k g (wd_matrices g)

let min_feasible_period net model =
  with_graph net model (fun g wd ->
      min_period wd (fun c -> feasible_retiming g wd c <> None))

let retime net ~model ~target =
  with_graph net model (fun g wd -> retime_with g wd net target)

let retime_min_period net ~model =
  with_graph net model (fun g wd ->
      let current = Sta.clock_period net model in
      let candidates =
        Array.of_list
          (List.filter (fun c -> c < current -. 1e-9) (candidate_periods wd))
      in
      let n = Array.length candidates in
      (* the search and the walk share the labellings: each candidate is
         probed at most once *)
      let labellings = Array.make n None in
      let probe i =
        match labellings.(i) with
        | Some r -> r
        | None ->
          let r = feasible_retiming g wd candidates.(i) in
          labellings.(i) <- Some r;
          r
      in
      (* the smallest graph-feasible candidate, then upward until one is
         also realizable (initial states computable).  Labellings only grow
         pointwise as the period rises, and [realize] is a function of the
         network and the labelling: a step whose labelling equals the one
         that just failed fails the same way, without a copy. *)
      let rec walk_up i failed =
        if i >= n then Error Infeasible
        else
          match probe i with
          | None -> walk_up (i + 1) None
          | Some r when failed = Some r ->
            Obs.Metrics.incr m_realizations_skipped;
            walk_up (i + 1) failed
          | Some r -> (
            match realize_copy g net r with
            | Ok net' -> Ok (net', candidates.(i))
            | Error (Init_state _ | Stuck _ | Infeasible) ->
              walk_up (i + 1) (Some r)
            | Error (Too_large _) as e -> e)
      in
      match smallest_feasible n (fun i -> probe i <> None) with
      | Some i -> walk_up i None
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
  let feasible_retiming = feasible_retiming
  let candidate_periods = candidate_periods
  let realize = realize
  let min_period = min_period
end
