module N = Netlist.Network

exception Too_large of string

(* --- shared helpers -------------------------------------------------------- *)

let leaf_names net =
  let pis = List.map (fun n -> n.N.name) (N.inputs net) in
  let states = List.map (fun l -> l.N.name) (N.latches net) in
  List.sort_uniq compare (pis @ states)

let endpoint_names net =
  let pos = List.map fst (N.outputs net) in
  let nexts = List.map (fun l -> "next:" ^ l.N.name) (N.latches net) in
  List.sort_uniq compare (pos @ nexts)

(* Evaluate all endpoints of a network under an assignment of leaves given by
   name. *)
let eval_endpoints net assign =
  let leaf_value id =
    let n = N.node net id in
    assign n.N.name
  in
  let po =
    List.map
      (fun (name, n) -> (name, N.eval_comb net leaf_value n.N.id))
      (N.outputs net)
  in
  let next =
    List.map
      (fun l ->
        ("next:" ^ l.N.name, N.eval_comb net leaf_value (N.latch_data net l).N.id))
      (N.latches net)
  in
  po @ next

let comb_equal_exhaustive a b =
  let leaves = leaf_names a in
  if leaf_names b <> leaves then false
  else if endpoint_names a <> endpoint_names b then false
  else begin
    let n = List.length leaves in
    if n > 16 then raise (Too_large "comb_equal_exhaustive: > 16 leaves");
    let indexed = List.mapi (fun i name -> (name, i)) leaves in
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < 1 lsl n do
      let bits = !i in
      let assign name = bits land (1 lsl List.assoc name indexed) <> 0 in
      let ea = eval_endpoints a assign and eb = eval_endpoints b assign in
      let sort = List.sort compare in
      if sort ea <> sort eb then ok := false;
      incr i
    done;
    !ok
  end

(* --- SAT-based combinational equivalence ----------------------------------- *)

(* One Tseitin encoder per (solver, network): its memo persists across the
   roots it is applied to, so cones shared between endpoints are encoded
   once. *)
let tseitin solver net ~leaf_var =
  let memo = Hashtbl.create 64 in
  let rec go id =
    match Hashtbl.find_opt memo id with
    | Some v -> v
    | None ->
      let n = N.node net id in
      let v =
        match n.N.kind with
        | N.Input | N.Latch _ -> leaf_var n
        | N.Const b ->
          let v = Sat_lite.new_var solver in
          Sat_lite.add_clause solver [ (if b then v + 1 else -(v + 1)) ];
          v
        | N.Logic cover ->
          let fanin_vars = Array.map go n.N.fanins in
          let out = Sat_lite.new_var solver in
          (* Tseitin for an SOP: introduce a var per cube. *)
          let cube_vars =
            List.map
              (fun cube ->
                let cv = Sat_lite.new_var solver in
                (* cv -> each literal *)
                Logic.Cube.iteri
                  (fun i l ->
                    let fv = fanin_vars.(i) in
                    match l with
                    | Logic.Cube.One ->
                      Sat_lite.add_clause solver [ -(cv + 1); fv + 1 ]
                    | Logic.Cube.Zero ->
                      Sat_lite.add_clause solver [ -(cv + 1); -(fv + 1) ]
                    | Logic.Cube.Both -> ())
                  cube;
                (* literals -> cv *)
                let body = ref [] in
                Logic.Cube.iteri
                  (fun i l ->
                    let fv = fanin_vars.(i) in
                    match l with
                    | Logic.Cube.One -> body := -(fv + 1) :: !body
                    | Logic.Cube.Zero -> body := fv + 1 :: !body
                    | Logic.Cube.Both -> ())
                  cube;
                Sat_lite.add_clause solver ((cv + 1) :: List.rev !body);
                cv)
              cover.Logic.Cover.cubes
          in
          (* out <-> OR of cubes *)
          List.iter
            (fun cv -> Sat_lite.add_clause solver [ -(cv + 1); out + 1 ])
            cube_vars;
          Sat_lite.add_clause solver
            (-(out + 1) :: List.map (fun cv -> cv + 1) cube_vars);
          out
      in
      Hashtbl.add memo id v;
      v
  in
  go

let comb_equal_sat ?(conflict_limit = 500_000) a b =
  let leaves = leaf_names a in
  if leaf_names b <> leaves then false
  else if endpoint_names a <> endpoint_names b then false
  else begin
    let solver = Sat_lite.create () in
    let leaf_sat =
      List.map (fun name -> (name, Sat_lite.new_var solver)) leaves
    in
    let leaf_var n = List.assoc n.N.name leaf_sat in
    let endpoints net =
      List.map (fun (name, n) -> (name, n.N.id)) (N.outputs net)
      @ List.map
          (fun l -> ("next:" ^ l.N.name, (N.latch_data net l).N.id))
          (N.latches net)
    in
    (* miter: OR of XORs of matched endpoints must be unsat; each endpoint
       gets a fresh encoder, so shared cones are encoded once per endpoint *)
    let xor_vars =
      List.map
        (fun (name, ida) ->
          let idb = List.assoc name (endpoints b) in
          let va = tseitin solver a ~leaf_var ida in
          let vb = tseitin solver b ~leaf_var idb in
          let x = Sat_lite.new_var solver in
          (* x <-> va xor vb *)
          Sat_lite.add_clause solver [ -(x + 1); va + 1; vb + 1 ];
          Sat_lite.add_clause solver [ -(x + 1); -(va + 1); -(vb + 1) ];
          Sat_lite.add_clause solver [ x + 1; -(va + 1); vb + 1 ];
          Sat_lite.add_clause solver [ x + 1; va + 1; -(vb + 1) ];
          x)
        (endpoints a)
    in
    Sat_lite.add_clause solver (List.map (fun x -> x + 1) xor_vars);
    match Sat_lite.solve ~conflict_limit solver with
    | Sat_lite.Unsat -> true
    | Sat_lite.Sat _ -> false
    | Sat_lite.Unknown -> raise (Too_large "comb_equal_sat: budget exhausted")
  end

(* --- random co-simulation --------------------------------------------------- *)

(* A run keeps no trace while it agrees: the diverging run's input vectors
   are redrawn from a copy of its starting random state. *)
let seq_equal_random ?(vectors = 64) ?(length = 128) ~seed a b =
  let pi_names = List.map (fun n -> n.N.name) (N.inputs a) in
  let draw rng = List.map (fun nm -> (nm, Random.State.bool rng)) pi_names in
  let rng = Random.State.make [| seed |] in
  (* the number of cycles up to and including the first output divergence *)
  let rec cycle k sa sb =
    if k = length then None
    else begin
      let vector = draw rng in
      let pi name = List.assoc name vector in
      let sa', oa = Simulate.step a ~pi ~state:sa in
      let sb', ob = Simulate.step b ~pi ~state:sb in
      if List.sort compare oa <> List.sort compare ob then Some (k + 1)
      else cycle (k + 1) sa' sb'
    end
  in
  let rec loop k =
    if k = 0 then None
    else begin
      let start = Random.State.copy rng in
      match
        cycle 0 (Simulate.binary_initial_state a)
          (Simulate.binary_initial_state b)
      with
      | None -> loop (k - 1)
      | Some n ->
        let rec redraw i =
          if i = n then []
          else
            let v = draw start in
            v :: redraw (i + 1)
        in
        Some (redraw 0)
    end
  in
  loop vectors
