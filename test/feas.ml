(* Leiserson-Saxe's iterative FEAS algorithm (relax-and-increment, no W/D
   matrices): a reference oracle for the W/D + Bellman-Ford feasibility
   check that min-period retiming uses. *)

module I = Retiming.Minperiod.Internal

(* FEAS(c): starting from r = 0, repeat |V| times: compute the combinational
   arrival times of the retimed graph (edges with w_r = 0 are wires) and
   increment r(v) for every vertex whose arrival exceeds c; c is feasible
   iff no violation remains.  The host's label stays 0. *)
let feasible (g : I.graph) target =
  let r = Array.make g.nv 0 in
  let arrivals () =
    (* longest-path over the 0-weight subgraph; None on a 0-weight cycle *)
    let adj = Array.make g.nv [] in
    let indeg = Array.make g.nv 0 in
    List.iter
      (fun (u, v, w) ->
        (* exactly-zero retimed weight = a wire; transiently negative
           weights are neither wires nor registers and are ignored here.
           The host never propagates arrivals (a PO-to-PI hop through the
           environment is not a combinational path): its outgoing wires
           contribute nothing beyond each gate's own delay, which the
           initialization covers. *)
        let wr = w + r.(v) - r.(u) in
        if wr = 0 && u <> v && u <> 0 then begin
          adj.(u) <- v :: adj.(u);
          indeg.(v) <- indeg.(v) + 1
        end)
      g.edges;
    let arrival = Array.copy g.delay in
    let queue = Queue.create () in
    for v = 0 to g.nv - 1 do
      if indeg.(v) = 0 then Queue.push v queue
    done;
    let processed = ref 0 in
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      incr processed;
      List.iter
        (fun v ->
          if arrival.(u) + g.delay.(v) > arrival.(v) then
            arrival.(v) <- arrival.(u) + g.delay.(v);
          indeg.(v) <- indeg.(v) - 1;
          if indeg.(v) = 0 then Queue.push v queue)
        adj.(u)
    done;
    if !processed < g.nv then None else Some arrival
  in
  (* The host is incrementable like any vertex: retimings only depend on
     label differences, so a host increment is a global decrement in
     disguise; labels are renormalized by the caller via r(v) - r(host). *)
  (* With the host participating, convergence can need more than the
     classical |V| - 1 rounds (each host increment re-normalizes the whole
     labeling); a quadratic bound is still cheap at our sizes. *)
  let rec iterate k =
    if k > (g.nv * g.nv) + 8 then false
    else
      match arrivals () with
      | None -> false (* a combinational (0-weight) cycle: infeasible here *)
      | Some arrival ->
        let violated = Array.make g.nv false in
        for v = 0 to g.nv - 1 do
          if arrival.(v) > target then violated.(v) <- true
        done;
        (* a negative retimed weight is a legality violation of the head
           vertex: incrementing it is the Bellman-Ford relaxation of the
           edge constraint r(v) >= r(u) - w *)
        List.iter
          (fun (u, v, w) -> if w + r.(v) - r.(u) < 0 then violated.(v) <- true)
          g.edges;
        let any = ref false in
        Array.iteri
          (fun v bad ->
            if bad then begin
              r.(v) <- r.(v) + 1;
              any := true
            end)
          violated;
        if not !any then
          List.for_all (fun (u, v, w) -> w + r.(v) - r.(u) >= 0) g.edges
        else iterate (k + 1)
  in
  iterate 0

(* The minimum period, searched over the same candidates as
   [Retiming.Minperiod.min_feasible_period]. *)
let min_period net model =
  let g = I.build_graph net model in
  I.min_period (I.wd_matrices g) (feasible g)
