module N = Netlist.Network

let simplify_nodes net =
  let improved = ref 0 in
  List.iter
    (fun n ->
      let c = N.cover_of n in
      let m = Logic.Minimize.minimize c in
      if
        Logic.Cover.lit_count m < Logic.Cover.lit_count c
        || Logic.Cover.size m < Logic.Cover.size c
      then begin
        N.set_cover net n m;
        incr improved
      end)
    (N.logic_nodes net);
  !improved

(* Substitute [producer]'s SOP into [consumer].  The combined fanin list is
   consumer's fanins with producer replaced by producer's fanins (dedup). *)
let collapse_into net ~producer ~consumer =
  assert (N.is_logic producer && N.is_logic consumer);
  let pc = N.cover_of producer and cc = N.cover_of consumer in
  (* Build the merged fanin list and index maps. *)
  let merged = ref [] in
  let index_of = Hashtbl.create 8 in
  let add id =
    if not (Hashtbl.mem index_of id) then begin
      Hashtbl.add index_of id (List.length !merged);
      merged := id :: !merged
    end
  in
  Array.iter (fun f -> if f <> producer.N.id then add f) consumer.N.fanins;
  Array.iter add producer.N.fanins;
  let merged = List.rev !merged in
  let nvars = List.length merged in
  (* producer function over merged variables *)
  let p_map = Array.map (fun f -> Hashtbl.find index_of f) producer.N.fanins in
  let p_pos = Logic.Cover.rename pc nvars p_map in
  let p_neg = Logic.Cover.complement p_pos in
  (* Consumer cubes: the literal on the producer position distributes over
     p_pos/p_neg; the remaining literals translate to merged variables.
     Conflicting literals (same signal read in both phases) void the cube. *)
  let exception Empty_cube in
  let result = ref (Logic.Cover.empty nvars) in
  List.iter
    (fun cube ->
      match
        let base = Logic.Cube.universe nvars in
        let producer_lit = ref Logic.Cube.Both in
        Logic.Cube.iteri
          (fun i l ->
            if l <> Logic.Cube.Both then begin
              let fid = consumer.N.fanins.(i) in
              if fid = producer.N.id then begin
                if !producer_lit = Logic.Cube.Both then producer_lit := l
                else if !producer_lit <> l then raise Empty_cube
              end
              else begin
                let v = Hashtbl.find index_of fid in
                if Logic.Cube.get base v = Logic.Cube.Both then
                  Logic.Cube.set base v l
                else if Logic.Cube.get base v <> l then raise Empty_cube
              end
            end)
          cube;
        (base, !producer_lit)
      with
      | exception Empty_cube -> ()
      | base, producer_lit ->
        let base_cover = Logic.Cover.make nvars [ base ] in
        let contribution =
          match producer_lit with
          | Logic.Cube.Both -> base_cover
          | Logic.Cube.One -> Logic.Cover.intersect base_cover p_pos
          | Logic.Cube.Zero -> Logic.Cover.intersect base_cover p_neg
        in
        result := Logic.Cover.union !result contribution)
    cc.Logic.Cover.cubes;
  let simplified = Logic.Cover.single_cube_containment !result in
  N.set_function net consumer simplified (List.map (N.node net) merged)

(* Literal value of eliminating a node (negative = saves literals). *)
let elimination_value n =
  let lits = Logic.Cover.lit_count (N.cover_of n) in
  let fanout_count = List.length n.N.fanouts in
  ((lits - 1) * fanout_count) - lits

(* A collapse may not grow the literal count, nor give any consumer a merged
   support of more than [max_support] signals. *)
let max_support = 12

let eliminate net =
  let eliminated = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun n ->
        match N.node_opt net n.N.id with
        | None -> ()
        | Some n ->
          if
            N.is_logic n
            && (not (N.drives_output net n))
            && n.N.fanouts <> []
            && List.for_all (fun c -> N.is_logic (N.node net c)) n.N.fanouts
            && elimination_value n <= 0
          then begin
            (* support cap: merged support of each consumer stays small *)
            let consumers = List.sort_uniq compare n.N.fanouts in
            let support_ok =
              List.for_all
                (fun cid ->
                  let c = N.node net cid in
                  let merged = Hashtbl.create 8 in
                  Array.iter (fun f -> Hashtbl.replace merged f ()) c.N.fanins;
                  Hashtbl.remove merged n.N.id;
                  Array.iter (fun f -> Hashtbl.replace merged f ()) n.N.fanins;
                  Hashtbl.length merged <= max_support)
                consumers
            in
            if support_ok then begin
              List.iter
                (fun cid ->
                  collapse_into net ~producer:n ~consumer:(N.node net cid))
                consumers;
              if n.N.fanouts = [] then begin
                N.delete net n;
                incr eliminated;
                changed := true
              end
            end
          end)
      (N.logic_nodes net)
  done;
  !eliminated

let unmapped_optimize net =
  N.sweep net;
  ignore (simplify_nodes net);
  ignore (eliminate net);
  ignore (simplify_nodes net);
  N.sweep net

let script_delay net ~lib =
  let work = N.copy net in
  unmapped_optimize work;
  Techmap.Mapper.map work ~lib
