module N = Netlist.Network

type collapsed = {
  root : N.node;
  leaves : N.node array;
  cover : Logic.Cover.t;
}

exception Cone_too_wide of int

let collapse ?(max_leaves = 14) net root =
  assert (N.is_logic root);
  let leaves = N.cone_leaves net root in
  let leaves =
    List.filter
      (fun n -> match n.N.kind with
         | N.Const _ -> false
         | N.Input | N.Latch _ -> true
         | N.Logic _ -> assert false)
      leaves
  in
  let nvars = List.length leaves in
  if nvars > max_leaves then raise (Cone_too_wide nvars);
  let leaves = Array.of_list leaves in
  let var_of = Hashtbl.create 16 in
  Array.iteri (fun i n -> Hashtbl.add var_of n.N.id i) leaves;
  (* Build the cone's function as a BDD over the leaf variables, then read a
     cover off the 1-paths.  The scope is per-cone (variable index [i] means
     a different leaf in every cone) but the nodes land in the process-wide
     shared table, so structurally equal cones — ubiquitous across windows
     and suite rows — cost probes instead of fresh allocations. *)
  let man = Bdd.create () in
  let values = Hashtbl.create 64 in
  let rec value_of id =
    match Hashtbl.find_opt values id with
    | Some v -> v
    | None ->
      let n = N.node net id in
      let v =
        match n.N.kind with
        | N.Input | N.Latch _ -> Bdd.var man (Hashtbl.find var_of id)
        | N.Const b -> if b then Bdd.btrue else Bdd.bfalse
        | N.Logic cover ->
          Bdd.of_cover man (Array.map value_of n.N.fanins) cover
      in
      Hashtbl.add values id v;
      v
  in
  let cover = Bdd.to_cover man ~nvars (value_of root.N.id) in
  { root; leaves; cover }

let rebuild net collapsed new_cover =
  let leaf_list = Array.to_list collapsed.leaves in
  N.set_function net collapsed.root new_cover leaf_list;
  N.sweep net

let simplify_root ~dc_for net root =
  match collapse net root with
  | exception Cone_too_wide _ -> false
  | collapsed ->
    let dc = dc_for ~leaves:collapsed.leaves in
    let minimized = Logic.Minimize.minimize ~dc collapsed.cover in
    let better =
      Logic.Cover.lit_count minimized < Logic.Cover.lit_count collapsed.cover
      || Logic.Cover.size minimized < Logic.Cover.size collapsed.cover
    in
    if better then begin
      rebuild net collapsed minimized;
      true
    end
    else false
