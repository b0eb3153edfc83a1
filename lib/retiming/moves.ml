module N = Netlist.Network

type error =
  | Not_retimable of string
  | No_initial_state of string

let error_message = function
  | Not_retimable msg -> "not retimable: " ^ msg
  | No_initial_state msg -> "no initial state: " ^ msg

(* Conservative three-valued evaluation of a cover on a point of initial
   values: a cube is I1 if all its literals are 1, I0 if any literal is 0,
   else Ix; the sum is I1 if any cube is I1, I0 if all are I0, else Ix. *)
let eval_inits cover inits =
  let eval_cube cube =
    let result = ref N.I1 in
    Logic.Cube.iteri
      (fun v l ->
        match (l, inits.(v)) with
        | Logic.Cube.Both, _ -> ()
        | Logic.Cube.One, N.I1 | Logic.Cube.Zero, N.I0 -> ()
        | Logic.Cube.One, N.I0 | Logic.Cube.Zero, N.I1 -> result := N.I0
        | (Logic.Cube.One | Logic.Cube.Zero), N.Ix ->
          if !result = N.I1 then result := N.Ix)
      cube;
    !result
  in
  List.fold_left
    (fun acc cube ->
      match (acc, eval_cube cube) with
      | N.I1, _ | _, N.I1 -> N.I1
      | N.Ix, _ | _, N.Ix -> N.Ix
      | N.I0, N.I0 -> N.I0)
    N.I0 cover.Logic.Cover.cubes

let is_forward_retimable net v =
  N.is_logic v
  && Array.length v.N.fanins > 0
  && Array.for_all (fun f -> N.is_latch (N.node net f)) v.N.fanins

let consumers net v = List.map (N.node net) v.N.fanouts

let is_backward_retimable net v =
  N.is_logic v
  && v.N.fanouts <> []
  && (not (N.drives_output net v))
  && List.for_all N.is_latch (consumers net v)
  && (match consumers net v with
      | [] -> false
      | first :: rest ->
        List.for_all (fun l -> N.latch_init l = N.latch_init first) rest)

let forward_across_node net v =
  if not (is_forward_retimable net v) then
    Error (Not_retimable (v.N.name ^ ": some fanin is not a latch"))
  else begin
    let fanin_latches = Array.map (N.node net) v.N.fanins in
    let new_init =
      eval_inits (N.cover_of v) (Array.map N.latch_init fanin_latches)
    in
    (* Remember the consumers before attaching the new latch. *)
    let old_consumers = v.N.fanouts in
    let drove_output = N.drives_output net v in
    let new_latch = N.add_latch net new_init v in
    (* Everything that read v now reads the latch (except the latch itself). *)
    List.iter
      (fun cid ->
        if cid <> new_latch.N.id then
          N.replace_fanin net (N.node net cid) ~old_fanin:v ~new_fanin:new_latch)
      (List.sort_uniq compare old_consumers);
    if drove_output then begin
      (* move output bindings from v to the latch *)
      List.iter
        (fun (name, driver) ->
          if driver.N.id = v.N.id then N.retarget_output net name new_latch)
        (N.outputs net)
    end;
    (* v now reads the latches' data inputs.  The target of every fanin slot
       is computed before any rewiring: one fanin latch's data may be another
       fanin latch, and slot-wise rewiring avoids aliasing them.  A latch on
       a self-loop (data driven by v itself) keeps its register on the
       cycle: that slot reads the freshly created output latch. *)
    let targets =
      Array.map
        (fun fid ->
          let l = N.node net fid in
          let data = N.latch_data net l in
          if data.N.id = v.N.id then new_latch else data)
        v.N.fanins
    in
    let binding = v.N.binding in
    N.set_function net v (N.cover_of v) (Array.to_list targets);
    N.set_binding net v binding;
    (* clean up latches that lost all consumers (deduplicate: a node may
       read the same latch in several fanin positions) *)
    List.iter
      (fun lid ->
        match N.node_opt net lid with
        | Some l when l.N.fanouts = [] && not (N.drives_output net l) ->
          N.delete net l
        | Some _ | None -> ())
      (List.sort_uniq compare
         (Array.to_list (Array.map (fun l -> l.N.id) fanin_latches)));
    Ok new_latch
  end

let backward_across_node net v =
  if not (is_backward_retimable net v) then
    Error (Not_retimable (v.N.name ^ ": consumers are not uniform latches"))
  else begin
    let out_latches = consumers net v in
    let target_init =
      match out_latches with
      | l :: _ -> N.latch_init l
      | [] -> assert false
    in
    let cover = N.cover_of v in
    let k = Array.length v.N.fanins in
    (* Find fanin initial values whose image is the target value.  Positions
       that read the same fanin node must receive equal values, so the search
       ranges over distinct fanins.  An [Ix] target is free. *)
    let distinct = List.sort_uniq compare (Array.to_list v.N.fanins) in
    let nd = List.length distinct in
    let slot_of = Hashtbl.create 4 in
    List.iteri (fun j fid -> Hashtbl.add slot_of fid j) distinct;
    let point_of slots =
      Array.map (fun fid -> slots.(Hashtbl.find slot_of fid)) v.N.fanins
    in
    let assignment =
      match target_init with
      | N.Ix -> Some (Array.make k N.Ix)
      | N.I0 | N.I1 ->
        let want = target_init = N.I1 in
        let rec search j slots =
          if j = nd then
            if Logic.Cover.eval cover (point_of slots) = want then Some slots
            else None
          else begin
            slots.(j) <- false;
            match search (j + 1) slots with
            | Some s -> Some s
            | None ->
              slots.(j) <- true;
              let r = search (j + 1) slots in
              if r = None then slots.(j) <- false;
              r
          end
        in
        (match search 0 (Array.make nd false) with
         | Some slots ->
           Some
             (Array.map
                (fun b -> if b then N.I1 else N.I0)
                (point_of slots))
         | None -> None)
    in
    match assignment with
    | None ->
      Error
        (No_initial_state
           (Printf.sprintf "%s: no preimage of initial value" v.N.name))
    | Some inits ->
      (* One new latch per distinct fanin; positions sharing a fanin share a
         latch (and therefore must receive the same initial value, which
         holds because the assignment is per-position on distinct nodes). *)
      let new_latch_for = Hashtbl.create 4 in
      Array.iteri
        (fun i fid ->
          if not (Hashtbl.mem new_latch_for fid) then begin
            let l = N.add_latch net inits.(i) (N.node net fid) in
            Hashtbl.add new_latch_for fid l
          end)
        v.N.fanins;
      (* rewire v to read the new latches *)
      let distinct_fanins = List.sort_uniq compare (Array.to_list v.N.fanins) in
      List.iter
        (fun fid ->
          N.replace_fanin net v ~old_fanin:(N.node net fid)
            ~new_fanin:(Hashtbl.find new_latch_for fid))
        distinct_fanins;
      (* old output latches disappear; their consumers read v directly *)
      List.iter
        (fun l ->
          N.transfer_fanouts net ~from:l ~to_:v;
          N.delete net l)
        (List.sort_uniq compare (List.map (fun l -> l.N.id) out_latches)
         |> List.map (N.node net));
      (* lint-waive: nondet/hashtbl-order — every caller discards this list
         (minarea: Result.map ignore; minperiod: matches Ok _). *)
      Ok (Hashtbl.fold (fun _ l acc -> l :: acc) new_latch_for [])
  end

let split_stem net latch =
  assert (N.is_latch latch);
  let consumer_ids = List.sort_uniq compare latch.N.fanouts in
  let data = N.latch_data net latch in
  let init = N.latch_init latch in
  match consumer_ids with
  | [] | [ _ ] -> [ latch ]
  | first :: rest ->
    ignore first;
    (* one copy per additional consumer; original keeps the first consumer
       and any primary outputs *)
    let copies =
      List.map
        (fun cid ->
          let copy =
            N.add_latch net ~name:(N.fresh_name net (latch.N.name ^ "_s"))
              init data
          in
          N.replace_fanin net (N.node net cid) ~old_fanin:latch ~new_fanin:copy;
          copy)
        rest
    in
    latch :: copies

let merge_siblings net latches =
  match latches with
  | [] -> Error (Not_retimable "merge_siblings: empty class")
  | [ only ] -> Ok only
  | keep :: others ->
    let data_id l = (N.latch_data net l).N.id in
    let compatible l =
      data_id l = data_id keep && N.latch_init l = N.latch_init keep
    in
    if not (List.for_all compatible others) then
      Error
        (Not_retimable
           "merge_siblings: latches disagree on data input or initial value")
    else begin
      List.iter
        (fun l ->
          (* transfer_fanouts also remaps primary outputs *)
          N.transfer_fanouts net ~from:l ~to_:keep;
          N.delete net l)
        others;
      Ok keep
    end

let siblings net latch =
  let data = N.latch_data net latch in
  List.filter N.is_latch (List.map (N.node net) data.N.fanouts)

(* The resynthesis engine loop: forward retiming across a fixed candidate id
   set, in order, repeated to a fixpoint.  The pass structure (re-scan the
   whole id list after any success) matters: an early node may become
   retimable only once a later one has moved its latches forward. *)
let forward_fixpoint net ids =
  let moves = ref 0 in
  let latches = ref [] in
  let changed = ref true in
  let iterations = ref 0 in
  let limit = 4 * List.length ids in
  while !changed && !iterations < limit do
    changed := false;
    incr iterations;
    List.iter
      (fun id ->
        match N.node_opt net id with
        | Some v when is_forward_retimable net v -> begin
            match forward_across_node net v with
            | Ok latch ->
              incr moves;
              latches := latch :: !latches;
              changed := true
            | Error _ -> ()
          end
        | Some _ | None -> ())
      ids
  done;
  (!moves, List.rev !latches)
