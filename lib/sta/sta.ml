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

let node_capacity net = N.capacity net

let analyze net model =
  let arrival = Array.make (node_capacity net) neg_infinity in
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

(* --- incremental timer ------------------------------------------------------- *)

module Incremental = struct
  (* Published into the process-wide registry in addition to the per-handle
     [stats], so a suite run attributes timing-engine work without anyone
     threading handles around. *)
  let m_full_syncs = Obs.Metrics.counter "sta.syncs.full"
  let m_incr_syncs = Obs.Metrics.counter "sta.syncs.incremental"
  let m_requeries = Obs.Metrics.counter "sta.requeries"
  let m_dirty_seeds = Obs.Metrics.histogram "sta.dirty_seeds"
  let m_dirty_cone = Obs.Metrics.histogram "sta.dirty_cone_nodes"

  type stats = {
    full_syncs : int;
    incremental_syncs : int;
    nodes_recomputed : int;
  }

  type t = {
    net : N.t;
    model : model;
    mutable cursor : N.cursor;
    mutable arrival : float array;
    mutable required : float array;
    mutable required_valid : bool;
    mutable required_target : float;
    mutable backlog : int list;
        (* dirty seeds applied to [arrival] but not yet to [required] *)
    latch_ids : (int, unit) Hashtbl.t;
    po_ids : (int, unit) Hashtbl.t;
    mutable ep_ids : int array;
        (* arrival indices of all endpoints, in [analyze]'s consideration
           order: PO drivers first (declaration order), then latch data
           pins (ascending latch id); rebuilt only when stale *)
    mutable ep_stale : bool;
    mutable po_rev : int;  (* Network.outputs_revision at last rebuild *)
    mutable period : float;
    mutable critical_end : int;
    mutable full_syncs : int;
    mutable incremental_syncs : int;
    mutable nodes_recomputed : int;
  }

  let network t = t.net

  (* The endpoint id sequence replicates [analyze]'s tie-breaking: primary
     outputs in declaration order, then latches in ascending id order (the
     order [live_nodes] yields them).  It is cached: binding/cover edits on
     logic nodes leave it untouched, so the common re-query only pays a flat
     scan over an int array. *)
  let rebuild_endpoints t =
    Hashtbl.reset t.po_ids;
    let outs = N.outputs t.net in
    List.iter (fun (_, n) -> Hashtbl.replace t.po_ids n.N.id ()) outs;
    let latch_data =
      Hashtbl.fold (fun id () acc -> id :: acc) t.latch_ids []
      |> List.sort compare
      |> List.map (fun lid -> (N.latch_data t.net (N.node t.net lid)).N.id)
    in
    t.ep_ids <-
      Array.of_list (List.map (fun (_, n) -> n.N.id) outs @ latch_data);
    t.po_rev <- N.outputs_revision t.net;
    t.ep_stale <- false

  let recompute_endpoints t =
    if t.ep_stale || t.po_rev <> N.outputs_revision t.net then
      rebuild_endpoints t;
    let period = ref 0.0 and critical_end = ref (-1) in
    let arr = t.arrival in
    Array.iter
      (fun id ->
        if !critical_end < 0 || arr.(id) > arr.(!critical_end) then
          critical_end := id;
        if arr.(id) > !period then period := arr.(id))
      t.ep_ids;
    t.period <- !period;
    t.critical_end <- !critical_end

  let full_sync t =
    let cap = N.capacity t.net in
    t.arrival <- Array.make cap neg_infinity;
    t.required <- Array.make cap infinity;
    t.required_valid <- false;
    t.backlog <- [];
    t.ep_stale <- true;
    Hashtbl.reset t.latch_ids;
    List.iter
      (fun n ->
        match n.N.kind with
        | N.Input | N.Const _ -> t.arrival.(n.N.id) <- 0.0
        | N.Latch _ ->
          t.arrival.(n.N.id) <- 0.0;
          Hashtbl.replace t.latch_ids n.N.id ()
        | N.Logic _ -> ())
      (N.all_nodes t.net);
    List.iter
      (fun n ->
        let worst =
          Array.fold_left (fun acc f -> max acc t.arrival.(f)) 0.0 n.N.fanins
        in
        t.arrival.(n.N.id) <- worst +. t.model n)
      (N.topo_combinational t.net);
    recompute_endpoints t;
    t.full_syncs <- t.full_syncs + 1;
    Obs.Metrics.incr m_full_syncs

  let ensure_capacity t =
    let cap = N.capacity t.net in
    let len = Array.length t.arrival in
    if cap > len then begin
      let grow a fill =
        let b = Array.make (max cap (2 * len)) fill in
        Array.blit a 0 b 0 len;
        b
      in
      t.arrival <- grow t.arrival neg_infinity;
      t.required <- grow t.required infinity
    end

  (* Forward update: mark the affected cone (dirty seeds plus everything
     downstream through logic, stopping at latches, whose output arrival is
     pinned to 0) and re-evaluate it by memoized descent over fanins. *)
  let forward_update t dirty =
    let stale = Hashtbl.create 64 in
    let visited = Hashtbl.create 64 in
    let queue = Queue.create () in
    List.iter (fun id -> Queue.push id queue) dirty;
    while not (Queue.is_empty queue) do
      let id = Queue.pop queue in
      if not (Hashtbl.mem visited id) then begin
        Hashtbl.add visited id ();
        match N.node_opt t.net id with
        | None -> t.arrival.(id) <- neg_infinity
        | Some n ->
          (match n.N.kind with
           | N.Input | N.Const _ | N.Latch _ ->
             if t.arrival.(id) <> 0.0 then begin
               t.arrival.(id) <- 0.0;
               List.iter (fun cid -> Queue.push cid queue) n.N.fanouts
             end
           | N.Logic _ ->
             Hashtbl.replace stale id ();
             List.iter (fun cid -> Queue.push cid queue) n.N.fanouts)
      end
    done;
    let rec value id =
      if Hashtbl.mem stale id then begin
        Hashtbl.remove stale id;
        t.nodes_recomputed <- t.nodes_recomputed + 1;
        match N.node_opt t.net id with
        | None -> t.arrival.(id) <- neg_infinity
        | Some n ->
          (match n.N.kind with
           | N.Input | N.Const _ | N.Latch _ -> t.arrival.(id) <- 0.0
           | N.Logic _ ->
             let worst =
               Array.fold_left (fun acc f -> max acc (value f)) 0.0 n.N.fanins
             in
             t.arrival.(id) <- worst +. t.model n)
      end;
      t.arrival.(id)
    in
    (* lint-waive: nondet/hashtbl-order — visit order only warms the memo:
       each arrival/required value is a pure function of the timing DAG. *)
    let pending = Hashtbl.fold (fun id () acc -> id :: acc) stale [] in
    List.iter (fun id -> ignore (value id)) pending

  let sync t =
    match N.journal_since t.net t.cursor with
    | None ->
      t.cursor <- N.journal_mark t.net;
      full_sync t
    | Some [] -> ()
    | Some dirty ->
      t.cursor <- N.journal_mark t.net;
      ensure_capacity t;
      (* membership maintenance for the endpoint sets: a dirty latch means
         its data pin may have been rewired, so the cache goes stale even
         when membership is unchanged *)
      List.iter
        (fun id ->
          let was = Hashtbl.mem t.latch_ids id in
          match N.node_opt t.net id with
          | Some n when N.is_latch n ->
            t.ep_stale <- true;
            if not was then Hashtbl.replace t.latch_ids id ()
          | Some _ | None ->
            if was then begin
              Hashtbl.remove t.latch_ids id;
              t.ep_stale <- true
            end)
        dirty;
      let recomputed_before = t.nodes_recomputed in
      forward_update t dirty;
      recompute_endpoints t;
      (* [required] is patched lazily from the backlog at the next slack
         query; it stays valid in the meantime *)
      t.backlog <- List.rev_append dirty t.backlog;
      t.incremental_syncs <- t.incremental_syncs + 1;
      if Obs.Metrics.enabled () then begin
        Obs.Metrics.incr m_incr_syncs;
        Obs.Metrics.observe m_dirty_seeds (List.length dirty);
        Obs.Metrics.observe m_dirty_cone
          (t.nodes_recomputed - recomputed_before)
      end

  let create net model =
    let t =
      { net;
        model;
        cursor = N.journal_mark net;
        arrival = [||];
        required = [||];
        required_valid = false;
        required_target = nan;
        backlog = [];
        latch_ids = Hashtbl.create 64;
        po_ids = Hashtbl.create 16;
        ep_ids = [||];
        ep_stale = true;
        po_rev = -1;
        period = 0.0;
        critical_end = -1;
        full_syncs = 0;
        incremental_syncs = 0;
        nodes_recomputed = 0 }
    in
    full_sync t;
    t

  let period t =
    Obs.Metrics.incr m_requeries;
    sync t;
    t.period

  let timing t =
    sync t;
    { arrival = t.arrival; period = t.period; critical_end = t.critical_end }

  let arrival t (n : N.node) =
    sync t;
    if n.N.id < Array.length t.arrival then t.arrival.(n.N.id)
    else neg_infinity

  let critical_path t =
    sync t;
    if t.critical_end < 0 then []
    else begin
      let rec walk id acc =
        let n = N.node t.net id in
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

  (* Backward pass.  [full_backward] replays [slack]'s propagation over the
     cached topological order; [incremental_backward] re-derives only the
     region reachable backward from the accumulated dirty seeds, using the
    equivalent per-node formula
      req(n) = min( R if n drives a PO,
                    min over consumers c: R if c is a latch
                                          | req(c) - delay(c) if c is logic ). *)
  let full_backward t required =
    let cap = Array.length t.arrival in
    let required_at = Array.make cap infinity in
    let set_req id r = if r < required_at.(id) then required_at.(id) <- r in
    List.iter (fun (_, n) -> set_req n.N.id required) (N.outputs t.net);
    List.iter
      (fun l -> set_req (N.latch_data t.net l).N.id required)
      (N.latches t.net);
    let rev_topo = List.rev (N.topo_combinational t.net) in
    List.iter
      (fun n ->
        let req = required_at.(n.N.id) in
        let fanin_req = req -. t.model n in
        Array.iter (fun f -> set_req f fanin_req) n.N.fanins)
      rev_topo;
    t.required <- required_at;
    t.required_target <- required;
    t.required_valid <- true;
    t.backlog <- []

  let incremental_backward t =
    let stale = Hashtbl.create 64 in
    let visited = Hashtbl.create 64 in
    let queue = Queue.create () in
    List.iter (fun id -> Queue.push id queue) t.backlog;
    while not (Queue.is_empty queue) do
      let id = Queue.pop queue in
      if not (Hashtbl.mem visited id) then begin
        Hashtbl.add visited id ();
        match N.node_opt t.net id with
        | None -> t.required.(id) <- infinity
        | Some n ->
          Hashtbl.replace stale id ();
          (* only a logic node's required time flows into its fanins; a
             latch contributes the constant endpoint requirement to its
             data pin, and data-pin rewiring journals the data node *)
          (match n.N.kind with
           | N.Logic _ ->
             Array.iter (fun f -> Queue.push f queue) n.N.fanins
           | N.Input | N.Const _ | N.Latch _ -> ())
      end
    done;
    let rec value id =
      if Hashtbl.mem stale id then begin
        Hashtbl.remove stale id;
        t.nodes_recomputed <- t.nodes_recomputed + 1;
        match N.node_opt t.net id with
        | None -> t.required.(id) <- infinity
        | Some n ->
          let base =
            if Hashtbl.mem t.po_ids id then t.required_target else infinity
          in
          let req =
            List.fold_left
              (fun acc cid ->
                match N.node_opt t.net cid with
                | None -> acc
                | Some c ->
                  (match c.N.kind with
                   | N.Latch _ -> min acc t.required_target
                   | N.Logic _ -> min acc (value cid -. t.model c)
                   | N.Input | N.Const _ -> acc))
              base n.N.fanouts
          in
          t.required.(id) <- req
      end;
      t.required.(id)
    in
    (* lint-waive: nondet/hashtbl-order — visit order only warms the memo:
       each arrival/required value is a pure function of the timing DAG. *)
    let pending = Hashtbl.fold (fun id () acc -> id :: acc) stale [] in
    List.iter (fun id -> ignore (value id)) pending;
    t.backlog <- []

  let sync_required t required =
    sync t;
    if (not t.required_valid) || t.required_target <> required then
      full_backward t required
    else if t.backlog <> [] then incremental_backward t

  let slack t ~required (n : N.node) =
    sync_required t required;
    if n.N.id >= Array.length t.arrival || t.arrival.(n.N.id) = neg_infinity
    then infinity
    else t.required.(n.N.id) -. t.arrival.(n.N.id)

  let slacks t ~required =
    sync_required t required;
    Array.init (N.capacity t.net) (fun id ->
        if t.arrival.(id) = neg_infinity then infinity
        else t.required.(id) -. t.arrival.(id))

  let stats t =
    { full_syncs = t.full_syncs;
      incremental_syncs = t.incremental_syncs;
      nodes_recomputed = t.nodes_recomputed }
end
