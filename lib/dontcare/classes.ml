module N = Netlist.Network

(* Union-find keyed by latch node id. *)
type t = { parent : (int, int) Hashtbl.t }

let create () = { parent = Hashtbl.create 16 }

let rec find t id =
  match Hashtbl.find_opt t.parent id with
  | None | Some (-1) -> id
  | Some p ->
    let root = find t p in
    if root <> p then Hashtbl.replace t.parent id root;
    root

let union t a b =
  let ra = find t a and rb = find t b in
  if ra <> rb then begin
    let keep = min ra rb and other = max ra rb in
    if not (Hashtbl.mem t.parent keep) then Hashtbl.replace t.parent keep (-1);
    Hashtbl.replace t.parent other keep
  end
  else if not (Hashtbl.mem t.parent ra) then Hashtbl.replace t.parent ra (-1)

let declare_equal t a b =
  assert (N.is_latch a && N.is_latch b);
  union t a.N.id b.N.id

let declare_class t nodes =
  match nodes with
  | [] -> ()
  | first :: rest -> List.iter (fun n -> declare_equal t first n) rest

let are_equal t a b =
  a.N.id = b.N.id
  || (Hashtbl.mem t.parent a.N.id && find t a.N.id = find t b.N.id)

let classes t =
  let by_root = Hashtbl.create 16 in
  (* lint-waive: nondet/hashtbl-order — grouping is commutative: members
     accumulate per root in any order and each group is sorted below. *)
  Hashtbl.iter
    (fun id _ ->
      let root = find t id in
      let members =
        match Hashtbl.find_opt by_root root with Some m -> m | None -> []
      in
      Hashtbl.replace by_root root (id :: members))
    t.parent;
  (* lint-waive: nondet/hashtbl-order — each class is sorted; the class
     list itself follows the table layout, which is fixed for a fixed
     insertion sequence (unseeded hashing, deterministic node order) and
     pinned by the resynthesis suite results. *)
  Hashtbl.fold
    (fun _ members acc ->
      if List.length members > 1 then List.sort compare members :: acc else acc)
    by_root []

let dc_cover t ~nvars ~var_of_latch =
  let cubes = ref [] in
  let add_pair va vb =
    let xor_cube la lb =
      let c = Logic.Cube.universe nvars in
      Logic.Cube.set c va la;
      Logic.Cube.set c vb lb;
      c
    in
    cubes := xor_cube Logic.Cube.One Logic.Cube.Zero :: !cubes;
    cubes := xor_cube Logic.Cube.Zero Logic.Cube.One :: !cubes
  in
  List.iter
    (fun members ->
      let vars = List.filter_map var_of_latch members in
      let rec pairs = function
        | [] | [ _ ] -> ()
        | v :: rest ->
          List.iter (fun w -> add_pair v w) rest;
          pairs rest
      in
      pairs vars)
    (classes t);
  Logic.Cover.make nvars !cubes

let drop_dead t ~alive =
  let dead =
    (* lint-waive: nondet/hashtbl-order — only emptiness is consumed. *)
    Hashtbl.fold (fun id _ acc -> if alive id then acc else id :: acc) t.parent []
  in
  (* rebuild the table without dead members (roots may need re-election) *)
  if dead <> [] then begin
    let groups = classes t in
    Hashtbl.clear t.parent;
    List.iter
      (fun members ->
        let live = List.filter alive members in
        match live with
        | [] | [ _ ] -> ()
        | first :: rest ->
          Hashtbl.replace t.parent first (-1);
          List.iter (fun id -> Hashtbl.replace t.parent id first) rest)
      groups
  end
