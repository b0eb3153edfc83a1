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

(* --- random co-simulation --------------------------------------------------- *)

(* Runs go in batches of one word of lanes: run [first + j] is bit [j].  The
   random bits are drawn in the order one run at a time would draw them
   (run, then cycle, then primary input in [N.inputs a] order) and the
   answer is the lowest-index diverging run, cut at its first diverging
   cycle, so verdicts and traces match a run-by-run simulation exactly. *)
let seq_equal_random ?(vectors = 64) ?(length = 128) ~seed a b =
  if vectors <= 0 then None
  else begin
    let init net =
      Array.of_list
        (List.map (fun (_, v) -> if v then -1 else 0)
           (Simulate.binary_initial_state net))
    in
    (* [b] first, so an [Ix] latch in both networks raises the message a
       run-by-run check raises *)
    let init_b = init b in
    let init_a = init a in
    let pa = Simulate.compile a and pb = Simulate.compile b in
    let npi = Array.length pa.inputs in
    (* a primary input reads the first input of [a] with its name *)
    let slot = Hashtbl.create npi in
    Array.iteri
      (fun i (name, _) -> if not (Hashtbl.mem slot name) then Hashtbl.add slot name i)
      pa.inputs;
    let slots (p : Simulate.program) =
      Array.map (fun (name, _) -> Hashtbl.find slot name) p.inputs
    in
    let a_slots = slots pa and b_slots = slots pb in
    (* output drivers paired by name; different name sets diverge at once *)
    let sorted_names (p : Simulate.program) =
      List.sort compare (Array.to_list (Array.map fst p.outputs))
    in
    let pairs =
      if sorted_names pa <> sorted_names pb then None
      else
        let driver_b = Hashtbl.create 16 in
        Array.iter (fun (name, id) -> Hashtbl.replace driver_b name id) pb.outputs;
        Some
          (Array.map (fun (name, id) -> (id, Hashtbl.find driver_b name)) pa.outputs)
    in
    let rng = Random.State.make [| seed |] in
    let draws = Array.make_matrix length npi 0 in
    let va = Array.make pa.capacity 0 and vb = Array.make pb.capacity 0 in
    let next_a = Array.make (Array.length pa.latches) 0 in
    let next_b = Array.make (Array.length pb.latches) 0 in
    let load (p : Simulate.program) values state =
      Array.iteri (fun i (id, _) -> values.(id) <- state.(i)) p.latches
    in
    let latch (p : Simulate.program) values next =
      Array.iteri (fun i (_, d) -> next.(i) <- values.(d)) p.latches
    in
    let lowest_lane w =
      let rec go j = if (w lsr j) land 1 = 1 then j else go (j + 1) in
      go 0
    in
    (* the lowest diverging lane of a batch and its divergence cycle count *)
    let batch lanes =
      for c = 0 to length - 1 do Array.fill draws.(c) 0 npi 0 done;
      for j = 0 to lanes - 1 do
        for c = 0 to length - 1 do
          let row = draws.(c) in
          for i = 0 to npi - 1 do
            if Random.State.bool rng then row.(i) <- row.(i) lor (1 lsl j)
          done
        done
      done;
      load pa va init_a;
      load pb vb init_b;
      let pending = ref (if lanes = Sys.int_size then -1 else (1 lsl lanes) - 1) in
      let found = ref None in
      let c = ref 0 in
      while !pending <> 0 && !c < length do
        let row = draws.(!c) in
        Array.iteri (fun i (_, id) -> va.(id) <- row.(a_slots.(i))) pa.inputs;
        Array.iteri (fun i (_, id) -> vb.(id) <- row.(b_slots.(i))) pb.inputs;
        Simulate.eval_words pa va;
        Simulate.eval_words pb vb;
        let diff =
          match pairs with
          | None -> -1
          | Some pairs ->
            Array.fold_left (fun d (ia, ib) -> d lor (va.(ia) lxor vb.(ib))) 0 pairs
        in
        let d = diff land !pending in
        if d <> 0 then begin
          let j = lowest_lane d in
          found := Some (j, !c + 1);
          pending := !pending land ((1 lsl j) - 1)
        end;
        latch pa va next_a;
        latch pb vb next_b;
        load pa va next_a;
        load pb vb next_b;
        incr c
      done;
      !found
    in
    let rec loop first =
      if first >= vectors then None
      else
        match batch (min Sys.int_size (vectors - first)) with
        | None -> loop (first + Sys.int_size)
        | Some (j, n) ->
          Some
            (List.init n (fun c ->
                 Array.to_list
                   (Array.mapi
                      (fun i (name, _) -> (name, (draws.(c).(i) lsr j) land 1 = 1))
                      pa.inputs)))
    in
    loop 0
  end
