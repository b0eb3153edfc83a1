module N = Netlist.Network

(* Merge every class of sibling latches (same driver, same init).  When
   DC_ret equivalence classes are supplied, sibling groups are partitioned by
   class first so a merge never straddles two classes — the merge-back
   legality condition checked by [Verify.merge_legal]. *)
let merge_all_siblings ?(classes = []) net =
  let class_of = Hashtbl.create 16 in
  List.iteri
    (fun ci cls -> List.iter (fun id -> Hashtbl.replace class_of id ci) cls)
    classes;
  let class_key id =
    match Hashtbl.find_opt class_of id with Some ci -> ci | None -> -1
  in
  let merged = ref 0 in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun l ->
      match N.node_opt net l.N.id with
      | None -> ()
      | Some l ->
        if (not (Hashtbl.mem seen l.N.id)) && N.is_latch l then begin
          let sibs =
            Moves.siblings net l
            |> List.filter (fun s -> N.latch_init s = N.latch_init l)
          in
          List.iter (fun s -> Hashtbl.replace seen s.N.id ()) sibs;
          let groups =
            List.sort_uniq compare (List.map (fun s -> class_key s.N.id) sibs)
            |> List.map (fun k ->
                   List.filter (fun s -> class_key s.N.id = k) sibs)
          in
          List.iter
            (fun group ->
              if List.length group > 1 then begin
                let ids = List.map (fun s -> s.N.id) group in
                match Verify.merge_legal ~equiv_classes:classes ids with
                | _ :: _ -> () (* unreachable after partitioning; be safe *)
                | [] -> (
                  match Moves.merge_siblings net group with
                  | Ok _ -> merged := !merged + List.length group - 1
                  | Error _ -> ())
              end)
            groups
        end)
    (N.latches net);
  !merged

(* A forward move across v is profitable when every distinct fanin latch of v
   has v as its only consumer: k latches collapse into one. *)
let forward_profit net v =
  if not (Moves.is_forward_retimable net v) then 0
  else begin
    let distinct =
      List.sort_uniq compare (Array.to_list v.N.fanins)
      |> List.map (N.node net)
    in
    let all_private =
      List.for_all
        (fun l ->
          (not (N.drives_output net l))
          && List.for_all (fun c -> c = v.N.id) l.N.fanouts)
        distinct
    in
    if all_private then List.length distinct - 1 else 0
  end

(* A backward move across v replaces its latched outputs by one latch per
   distinct fanin. *)
let backward_profit net v =
  if not (Moves.is_backward_retimable net v) then 0
  else begin
    let outs = List.length (List.sort_uniq compare v.N.fanouts) in
    let ins = List.length (List.sort_uniq compare (Array.to_list v.N.fanins)) in
    outs - ins
  end

let m_merged = Obs.Metrics.counter "minarea.latches_merged"
let m_moves_accepted = Obs.Metrics.counter "minarea.moves_accepted"
let m_moves_rejected = Obs.Metrics.counter "minarea.moves_rejected"
let m_eliminated = Obs.Metrics.counter "minarea.latches_eliminated"

let minimize_registers ?(classes = []) ?timer net ~model ~max_period =
  (* Every candidate move pays a period check; an incremental timer makes an
     accepted move cost only its affected cone.  A rejected move reverts via
     [N.restore], which journals the reverted ids, so the timer resyncs just
     the touched cone rather than falling back to a full analysis. *)
  let timer =
    match timer with
    | Some t when Sta.Incremental.network t == net -> t
    | Some _ | None -> Sta.Incremental.create net model
  in
  let eliminated = ref 0 in
  let improved = ref true in
  while !improved do
    improved := false;
    let merges = merge_all_siblings ~classes net in
    if merges > 0 then begin
      Obs.Metrics.add m_merged merges;
      eliminated := !eliminated + merges;
      improved := true
    end;
    (* candidate moves, most profitable first; re-check profit as the network
       changes under us *)
    let try_move v =
      match N.node_opt net v.N.id with
      | None -> ()
      | Some v ->
        let fwd = forward_profit net v and bwd = backward_profit net v in
        if fwd > 0 || bwd > 0 then begin
          let before = N.copy net in
          let latches_before = N.num_latches net in
          let apply =
            if fwd >= bwd then Moves.forward_across_node net v |> Result.map ignore
            else Moves.backward_across_node net v |> Result.map ignore
          in
          match apply with
          | Error _ -> ()
          | Ok () ->
            let period_ok =
              Sta.Incremental.period timer <= max_period +. 1e-9
            in
            let gained = latches_before - N.num_latches net in
            if period_ok && gained > 0 then begin
              Obs.Metrics.incr m_moves_accepted;
              eliminated := !eliminated + gained;
              improved := true
            end
            else begin
              Obs.Metrics.incr m_moves_rejected;
              (* revert: restore from the snapshot *)
              N.restore net before
            end
        end
    in
    List.iter try_move (N.logic_nodes net)
  done;
  Obs.Metrics.add m_eliminated !eliminated;
  !eliminated
