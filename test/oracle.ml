(* Sequential-equivalence oracle shared by the test executables: the
   whole-result check Table I rows use, accepting a proof or a clean random
   co-simulation. *)
let seq_equivalent a b =
  match Eqcheck.check_result a b with
  | Eqcheck.Proved | Eqcheck.Simulated _ -> true
  | Eqcheck.Refuted _ | Eqcheck.Unknown _ -> false

(* Run-by-run random co-simulation: the scalar reference for
   [Sim.Equiv.seq_equal_random], which must return exactly this [option],
   trace included.  A run keeps no trace while it agrees: the diverging
   run's input vectors are redrawn from a copy of its starting random
   state. *)
let seq_equal_random ?(vectors = 64) ?(length = 128) ~seed a b =
  let module N = Netlist.Network in
  let module S = Sim.Simulate in
  let pi_names = List.map (fun n -> n.N.name) (N.inputs a) in
  let draw rng = List.map (fun nm -> (nm, Random.State.bool rng)) pi_names in
  let rng = Random.State.make [| seed |] in
  (* the number of cycles up to and including the first output divergence *)
  let rec cycle k sa sb =
    if k = length then None
    else begin
      let vector = draw rng in
      let pi name = List.assoc name vector in
      let sa', oa = S.step a ~pi ~state:sa in
      let sb', ob = S.step b ~pi ~state:sb in
      if List.sort compare oa <> List.sort compare ob then Some (k + 1)
      else cycle (k + 1) sa' sb'
    end
  in
  let rec loop k =
    if k = 0 then None
    else begin
      let start = Random.State.copy rng in
      match cycle 0 (S.binary_initial_state a) (S.binary_initial_state b) with
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

(* Explicit-state reachability, the reference for the BDD engine: every
   input vector of [net] in [Network.inputs] order, as [(name, value)]
   lists. *)
let input_vectors net =
  let module N = Netlist.Network in
  List.fold_right
    (fun p acc ->
      List.concat_map
        (fun v -> [ (p.N.name, false) :: v; (p.N.name, true) :: v ])
        acc)
    (N.inputs net) [ [] ]

(* Every initial state of [net] ([Ix] latches take both values), as latch
   id -> value lists in [Network.latches] order. *)
let initial_states net =
  let module N = Netlist.Network in
  List.fold_right
    (fun l acc ->
      let values =
        match N.latch_init l with
        | N.I0 -> [ false ]
        | N.I1 -> [ true ]
        | N.Ix -> [ false; true ]
      in
      List.concat_map
        (fun s -> List.map (fun b -> (l.N.id, b) :: s) values)
        acc)
    (N.latches net) [ [] ]

(* Breadth-first search over [Sim.Simulate.step] on every input vector from
   every initial state: each reachable state (latch values in
   [Network.latches] order) with the number of cycles it takes to reach
   it first. *)
let reachable_states net =
  let vectors = input_vectors net in
  let depth = Hashtbl.create 64 in
  let rec bfs d frontier =
    let fresh =
      List.filter
        (fun s ->
          if Hashtbl.mem depth s then false
          else begin
            Hashtbl.add depth s d;
            true
          end)
        frontier
    in
    if fresh <> [] then
      bfs (d + 1)
        (List.concat_map
           (fun s ->
             List.map
               (fun vec ->
                 let pi name = List.assoc name vec in
                 fst (Sim.Simulate.step net ~pi ~state:s))
               vectors)
           fresh)
  in
  bfs 0 (initial_states net);
  Hashtbl.fold (fun s d acc -> (List.map snd s, d) :: acc) depth []

(* Breadth-first search over the product of [a] and [b] (same input and
   output names): the number of cycles of the shortest input trace on which
   some primary output differs, or [None] when no reachable pair of states
   ever disagrees. *)
let first_divergence a b =
  let vectors = input_vectors a in
  let seen = Hashtbl.create 256 in
  let rec bfs d frontier =
    let fresh =
      List.filter
        (fun pair ->
          if Hashtbl.mem seen pair then false
          else begin
            Hashtbl.add seen pair ();
            true
          end)
        frontier
    in
    if fresh = [] then None
    else begin
      let next = ref [] and diverged = ref false in
      List.iter
        (fun (sa, sb) ->
          List.iter
            (fun vec ->
              let pi name = List.assoc name vec in
              let sa', oa = Sim.Simulate.step a ~pi ~state:sa in
              let sb', ob = Sim.Simulate.step b ~pi ~state:sb in
              if List.sort compare oa <> List.sort compare ob then
                diverged := true;
              next := (sa', sb') :: !next)
            vectors)
        fresh;
      if !diverged then Some (d + 1) else bfs (d + 1) !next
    end
  in
  bfs 0
    (List.concat_map
       (fun sa -> List.map (fun sb -> (sa, sb)) (initial_states b))
       (initial_states a))

(* The symbolic machine as [Dontcare.Reach] laid it out before its image was
   partitioned, the reference for the partitioned engine: inputs, then every
   state bit's present-state variable, then the next-state variables
   [nstate] above them; one monolithic transition relation
   [T = AND_k (ns_k <-> f_k)]; the image [exists inputs, ps. T AND r]
   renamed down by [nstate]; and the walk back through
   [T AND ns-cube AND ring].  No node budget. *)
module Monolithic = struct
  module N = Netlist.Network
  module R = Dontcare.Reach

  type machine = {
    man : Bdd.man;
    inputs : string list;
    nstate : int;
    parts : R.component array;
    transition : Bdd.t;
    init : Bdd.t;
  }

  let machine ~outputs ~inputs parts =
    let man = Bdd.create () in
    let npi = List.length inputs in
    let pi_var = Hashtbl.create 16 in
    List.iteri (fun i name -> Hashtbl.add pi_var name i) inputs;
    let build base (net, latches) =
      let ps_var = Hashtbl.create 16 in
      List.iteri (fun j l -> Hashtbl.add ps_var l.N.id (base + j)) latches;
      let leaf n =
        if N.is_latch n then
          Option.map (Bdd.var man) (Hashtbl.find_opt ps_var n.N.id)
        else Some (Bdd.var man (Hashtbl.find pi_var n.N.name))
      in
      let roots =
        (if outputs then List.map (fun (_, n) -> n.N.id) (N.outputs net)
         else [])
        @ List.map (fun l -> (N.latch_data net l).N.id) latches
      in
      let values = R.cone_values man ~budget:ignore ~leaf ~roots net in
      (base + List.length latches, { R.net; latches; ps_var; values })
    in
    let base, parts = List.fold_left_map build npi parts in
    let nstate = base - npi in
    let bits =
      List.concat_map (fun c -> List.map (fun l -> (c, l)) c.R.latches) parts
    in
    let transition =
      List.fold_left
        (fun t (c, l) ->
          let ns = Hashtbl.find c.R.ps_var l.N.id + nstate in
          let f = Hashtbl.find c.R.values (N.latch_data c.R.net l).N.id in
          Bdd.band man t (Bdd.bxnor man (Bdd.var man ns) f))
        Bdd.btrue bits
    in
    let init =
      List.fold_left
        (fun acc (c, l) ->
          let v = Bdd.var man (Hashtbl.find c.R.ps_var l.N.id) in
          match N.latch_init l with
          | N.I0 -> Bdd.band man acc (Bdd.bnot man v)
          | N.I1 -> Bdd.band man acc v
          | N.Ix -> acc)
        Bdd.btrue bits
    in
    { man; inputs; nstate; parts = Array.of_list parts; transition; init }

  let input_vector m asn =
    List.mapi (fun i name -> (name, List.assoc i asn)) m.inputs

  let walk m hit rings =
    let man = m.man in
    let npi = List.length m.inputs in
    let vars = List.init (npi + m.nstate) Fun.id in
    let full_assign f =
      let partial = Bdd.any_sat man f in
      List.map
        (fun v -> (v, Option.value ~default:false (List.assoc_opt v partial)))
        vars
    in
    let state asn = List.filter (fun (v, _) -> v >= npi) asn in
    let rec back s steps = function
      | [] -> (steps, s)
      | ring :: older ->
        let ns_cube =
          List.fold_left
            (fun acc (v, b) ->
              let nsv = Bdd.var man (v + m.nstate) in
              Bdd.band man acc (if b then nsv else Bdd.bnot man nsv))
            Bdd.btrue s
        in
        let pred = Bdd.band man (Bdd.band man m.transition ns_cube) ring in
        let asn = full_assign pred in
        back (state asn) (input_vector m asn :: steps) older
    in
    let witness = full_assign hit in
    let steps, start = back (state witness) [] (List.tl rings) in
    { R.steps; start; witness }

  let explore m ~init ~bad =
    let man = m.man in
    let vars = List.init (List.length m.inputs + m.nstate) Fun.id in
    let image r =
      let after = Bdd.and_exists man vars m.transition r in
      Bdd.rename man after (fun v -> v - m.nstate)
    in
    let rec fixpoint reached frontier rings =
      let hit = Bdd.band man frontier bad in
      if not (Bdd.is_false hit) then R.Hit (walk m hit rings)
      else begin
        let fresh = Bdd.band man (image frontier) (Bdd.bnot man reached) in
        if Bdd.is_false fresh then R.Reached reached
        else fixpoint (Bdd.bor man reached fresh) fresh (fresh :: rings)
      end
    in
    fixpoint init init [ init ]
end

(* Two-level minimization references: the kernel as it was before its
   REDUCE cofactored, each cube's essential part being [c] sharp the whole
   rest of the cover plus the DC set.  [minimize] runs the old loop on the
   old passes: EXPAND sweeps to a fixpoint, IRREDUNDANT's tautology check
   always splits, and [complement] sweeps the union of a split's halves for
   containment instead of merging them.  The library must return the same
   cube lists.  [minimize_exact_small] is a Quine-McCluskey minimizer for
   small variable counts, the quality reference for the heuristic. *)
module Two_level = struct
  module Cover = Logic.Cover
  module Cube = Logic.Cube

  (* the most binate variable, then the most frequent; -1 when none *)
  let binate_select f =
    let n = f.Cover.nvars in
    let pos = Array.make n 0 and neg = Array.make n 0 in
    List.iter
      (Cube.iteri (fun v l ->
           match l with
           | Cube.One -> pos.(v) <- pos.(v) + 1
           | Cube.Zero -> neg.(v) <- neg.(v) + 1
           | Cube.Both -> ()))
      f.Cover.cubes;
    let best = ref (-1) and best_key = ref (-1, -1) in
    for v = 0 to n - 1 do
      let key = (min pos.(v) neg.(v), pos.(v) + neg.(v)) in
      if pos.(v) + neg.(v) > 0 && key > !best_key then begin
        best := v;
        best_key := key
      end
    done;
    !best

  let has_universe f = List.exists (fun c -> Cube.lit_count c = 0) f.Cover.cubes

  let rec complement f =
    let n = f.Cover.nvars in
    if f.Cover.cubes = [] then Cover.tautology_cover n
    else if has_universe f then Cover.empty n
    else
      match f.Cover.cubes with
      | [] | [ _ ] -> Cover.complement f
      | _ :: _ :: _ ->
        let v = binate_select f in
        let attach value g =
          let lit = Cube.set_var (Cube.universe n) v value in
          List.filter_map (Cube.intersect lit) g.Cover.cubes
        in
        let hi = complement (Cover.cofactor f v Cube.One) in
        let lo = complement (Cover.cofactor f v Cube.Zero) in
        Cover.single_cube_containment
          (Cover.make n (attach Cube.One hi @ attach Cube.Zero lo))

  let rec is_tautology f =
    if has_universe f then true
    else if f.Cover.cubes = [] then false
    else
      let v = binate_select f in
      v >= 0
      && is_tautology (Cover.cofactor f v Cube.One)
      && is_tautology (Cover.cofactor f v Cube.Zero)

  let others ~dc kept rest =
    let cubes = List.rev_append kept (List.rev_append rest dc.Cover.cubes) in
    { dc with Cover.cubes }

  let expand ~off f =
    let feasible c =
      not (List.exists (Cube.intersects c) off.Cover.cubes)
    in
    let expand_cube cube =
      let current = Cube.copy cube in
      let changed = ref true in
      while !changed do
        changed := false;
        for v = 0 to Cube.nvars cube - 1 do
          let saved = Cube.get current v in
          if saved <> Cube.Both then begin
            Cube.set current v Cube.Both;
            if feasible current then changed := true
            else Cube.set current v saved
          end
        done
      done;
      current
    in
    Cover.single_cube_containment
      { f with Cover.cubes = List.map expand_cube f.Cover.cubes }

  let irredundant ~dc f =
    let rec loop kept = function
      | [] -> List.rev kept
      | c :: rest ->
        if is_tautology (Cover.cube_cofactor (others ~dc kept rest) c) then
          loop kept rest
        else loop (c :: kept) rest
    in
    { f with Cover.cubes = loop [] f.Cover.cubes }

  let reduce ~dc f =
    let rec loop kept = function
      | [] -> List.rev kept
      | c :: rest ->
        let rest_cover = others ~dc kept rest in
        let essential =
          if rest_cover.Cover.cubes = [] then [ c ]
          else
            (Cover.intersect
               { f with Cover.cubes = [ c ] }
               (complement rest_cover))
              .Cover.cubes
        in
        (match essential with
         | [] -> loop kept rest
         | first :: more ->
           loop (List.fold_left Cube.supercube first more :: kept) rest)
    in
    { f with Cover.cubes = loop [] f.Cover.cubes }

  let minimize ?dc f =
    let dc = match dc with Some d -> d | None -> Cover.empty f.Cover.nvars in
    if Cover.is_empty f then f
    else begin
      let off = complement (Cover.union f dc) in
      let cost f = (Cover.size f, Cover.lit_count f) in
      let rec loop best =
        let candidate = best |> expand ~off |> irredundant ~dc |> reduce ~dc in
        let candidate = expand ~off candidate |> irredundant ~dc in
        if cost candidate < cost best then loop candidate else best
      in
      loop (expand ~off f |> irredundant ~dc)
    end

  let all_minterms_of f dc =
    let n = f.Cover.nvars in
    let on = ref [] and care = ref [] in
    let point = Array.make n false in
    let rec enum v =
      if v = n then begin
        let in_f = Cover.eval f point and in_dc = Cover.eval dc point in
        if in_f || in_dc then care := Array.copy point :: !care;
        if in_f && not in_dc then on := Array.copy point :: !on
      end
      else begin
        point.(v) <- false;
        enum (v + 1);
        point.(v) <- true;
        enum (v + 1)
      end
    in
    enum 0;
    (List.rev !on, List.rev !care)

  let prime_implicants n care_points =
    (* Iterative consensus over minterm cubes restricted to the care set. *)
    let module CS = Set.Make (struct
      type t = Cube.t
      let compare = Cube.compare
    end) in
    let care = Cover.make n (List.map (Cube.minterm n) care_points) in
    let start = CS.of_list (List.map (Cube.minterm n) care_points) in
    let rec grow current =
      let next = ref CS.empty and merged = ref CS.empty in
      let items = CS.elements current in
      List.iteri
        (fun i a ->
          List.iteri
            (fun j b ->
              if j > i && Cube.distance a b = 1 then
                match Cube.consensus a b with
                | Some c when Cube.contains c a && Cube.contains c b ->
                  (* adjacent merge (a, b differ in exactly one variable) *)
                  if Cover.covers_cube care c then begin
                    next := CS.add c !next;
                    merged := CS.add a (CS.add b !merged)
                  end
                | Some _ | None -> ())
            items)
        items;
      let primes = CS.diff current !merged in
      if CS.is_empty !next then primes else CS.union primes (grow !next)
    in
    CS.elements (grow start)

  let minimize_exact_small ?dc f =
    let n = f.Cover.nvars in
    assert (n <= 12);
    let dc = match dc with Some d -> d | None -> Cover.empty n in
    let on, care = all_minterms_of f dc in
    if on = [] then Cover.empty n
    else begin
      let primes = prime_implicants n care in
      (* Greedy set cover of ON minterms by primes, preferring big cubes. *)
      let primes =
        List.sort
          (fun a b -> compare (Cube.lit_count a) (Cube.lit_count b))
          primes
      in
      let chosen = ref [] in
      (* Essential primes first. *)
      List.iter
        (fun m ->
          match List.filter (fun p -> Cube.eval p m) primes with
          | [ only ] when not (List.memq only !chosen) ->
            chosen := only :: !chosen
          | [] | [ _ ] | _ :: _ :: _ -> ())
        on;
      let uncovered =
        ref
          (List.filter
             (fun m -> not (List.exists (fun p -> Cube.eval p m) !chosen))
             on)
      in
      while !uncovered <> [] do
        let best = ref None and best_gain = ref (-1) in
        List.iter
          (fun p ->
            if not (List.memq p !chosen) then begin
              let gain =
                List.length (List.filter (fun m -> Cube.eval p m) !uncovered)
              in
              if gain > !best_gain then begin
                best := Some p;
                best_gain := gain
              end
            end)
          primes;
        match !best with
        | Some p ->
          chosen := p :: !chosen;
          uncovered := List.filter (fun m -> not (Cube.eval p m)) !uncovered
        | None -> failwith "minimize_exact_small: cover construction failed"
      done;
      Cover.single_cube_containment (Cover.make n !chosen)
    end
end

(* Min-period retiming as [Retiming.Minperiod] solved it before its probes
   read the period constraints off the W/D rows.  W and D come from the
   Floyd-Warshall loop that indexes the matrices afresh on every step, with
   the sink delays added into a third matrix; every feasibility probe builds
   its constraint list and runs Bellman-Ford over it; the candidate periods
   go through a polymorphic [Hashtbl]; and the walk above the smallest
   feasible candidate probes again and realizes at every step.  The library
   must give bit-identical matrices, the same candidates, the same labelling
   at every candidate and the same retimed network and period. *)
module Minperiod_ref = struct
  module M = Retiming.Minperiod
  module I = Retiming.Minperiod.Internal
  module N = Netlist.Network

  let big = max_int / 4

  let wd_matrices g =
    let nv = g.I.nv in
    let w = Array.make_matrix nv nv big in
    let d = Array.make_matrix nv nv neg_infinity in
    List.iter
      (fun (u, v, wt) ->
        if wt < w.(u).(v) || (wt = w.(u).(v) && g.I.delay.(u) > d.(u).(v))
        then begin
          w.(u).(v) <- wt;
          d.(u).(v) <- g.I.delay.(u)
        end)
      g.I.edges;
    for k = 1 to nv - 1 do
      for u = 0 to nv - 1 do
        if w.(u).(k) < big then
          for v = 0 to nv - 1 do
            if w.(k).(v) < big then begin
              let nw = w.(u).(k) + w.(k).(v) in
              let nd = d.(u).(k) +. d.(k).(v) in
              if nw < w.(u).(v) || (nw = w.(u).(v) && nd > d.(u).(v)) then begin
                w.(u).(v) <- nw;
                d.(u).(v) <- nd
              end
            end
          done
      done
    done;
    let dd = Array.make_matrix nv nv neg_infinity in
    for u = 0 to nv - 1 do
      for v = 0 to nv - 1 do
        if w.(u).(v) < big then dd.(u).(v) <- d.(u).(v) +. g.I.delay.(v)
      done
    done;
    (w, dd)

  let has_cycle pred =
    let n = Array.length pred in
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

  let solve_constraints nv constraints =
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
        constraints;
      if !changed then cyclic := has_cycle pred
    done;
    if !changed then None
    else begin
      let shift = r.(0) in
      Some (Array.map (fun x -> x - shift) r)
    end

  let feasible_retiming g (w, d) target =
    let constraints = ref [] in
    List.iter
      (fun (u, v, wt) -> constraints := (u, v, wt) :: !constraints)
      g.I.edges;
    for u = 0 to g.I.nv - 1 do
      for v = 0 to g.I.nv - 1 do
        if d.(u).(v) > target +. 1e-9 && w.(u).(v) < big then
          constraints := (u, v, w.(u).(v) - 1) :: !constraints
      done
    done;
    solve_constraints g.I.nv !constraints

  let candidate_periods (_, d) =
    let set = Hashtbl.create 64 in
    let nv = Array.length d in
    for u = 0 to nv - 1 do
      for v = 0 to nv - 1 do
        if d.(u).(v) > neg_infinity then Hashtbl.replace set d.(u).(v) ()
      done
    done;
    List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) set [])

  let retime_with g wd net target =
    match feasible_retiming g wd target with
    | None -> Error M.Infeasible
    | Some r ->
      let copy = N.copy net in
      (match I.realize copy g r with
       | Ok () ->
         N.sweep copy;
         Ok copy
       | Error e -> Error e)

  let smallest_feasible candidates feasible =
    let n = Array.length candidates in
    if n = 0 || not (feasible candidates.(n - 1)) then None
    else begin
      let lo = ref 0 and hi = ref (n - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if feasible candidates.(mid) then hi := mid else lo := mid + 1
      done;
      Some !lo
    end

  let retime_min_period net ~model =
    let g = I.build_graph net model in
    if g.I.nv > 1200 then Error (M.Too_large g.I.nv)
    else begin
      let wd = wd_matrices g in
      let current = Sta.clock_period net model in
      let candidates =
        Array.of_list
          (List.filter (fun c -> c < current -. 1e-9) (candidate_periods wd))
      in
      let rec walk_up i =
        if i >= Array.length candidates then Error M.Infeasible
        else
          match retime_with g wd net candidates.(i) with
          | Ok net' -> Ok (net', candidates.(i))
          | Error (M.Init_state _ | M.Stuck _ | M.Infeasible) -> walk_up (i + 1)
          | Error (M.Too_large _) as e -> e
      in
      match
        smallest_feasible candidates (fun c -> feasible_retiming g wd c <> None)
      with
      | Some i -> walk_up i
      | None -> Error M.Infeasible
    end
end

(* [Circuits.Generators.random_sequential] as it was before it indexed its
   sources: the source list [pis @ latches @ gates] (gates newest first) is
   rebuilt for every gate and copied into an array on every draw, and the
   latch rewiring rebuilds its candidate list for every latch.  The library
   must draw the same random numbers and build the same netlist. *)
module Generators_ref = struct
  module N = Netlist.Network
  module G = Circuits.Generators

  let rec random_cover rng k =
    let ncubes = 1 + Random.State.int rng 3 in
    let cube () =
      let c = Logic.Cube.universe k in
      let nlits = 1 + Random.State.int rng k in
      for _ = 1 to nlits do
        let v = Random.State.int rng k in
        Logic.Cube.set c v
          (if Random.State.bool rng then Logic.Cube.One else Logic.Cube.Zero)
      done;
      c
    in
    let cover = Logic.Cover.make k (List.init ncubes (fun _ -> cube ())) in
    if Logic.Cover.is_tautology cover || Logic.Cover.is_empty cover then
      random_cover rng k
    else cover

  let pick rng items =
    let arr = Array.of_list items in
    arr.(Random.State.int rng (Array.length arr))

  let random_sequential ~seed (profile : G.profile) =
    let rng = Random.State.make [| seed |] in
    let net = N.create ~name:(Printf.sprintf "rand%d" seed) () in
    let pis =
      List.init profile.G.npi (fun i ->
          N.add_input net (Printf.sprintf "in%d" i))
    in
    let placeholder = List.nth pis 0 in
    let latches =
      List.init profile.G.nlatch (fun i ->
          N.add_latch net
            ~name:(Printf.sprintf "r%d" i)
            (if Random.State.bool rng then N.I1 else N.I0)
            placeholder)
    in
    let gates = ref [] in
    for i = 0 to profile.G.ngates - 1 do
      let sources = pis @ latches @ !gates in
      let k = 2 + Random.State.int rng (max 1 (profile.G.max_fanin - 1)) in
      let fanin () =
        if latches <> [] && Random.State.float rng 1.0 < profile.G.stem_bias
        then pick rng latches
        else pick rng sources
      in
      let rec distinct acc n =
        if n = 0 then acc
        else begin
          let f = fanin () in
          if List.memq f acc then distinct acc n
          else distinct (f :: acc) (n - 1)
        end
      in
      let fanins = distinct [] (min k (List.length sources)) in
      let k = List.length fanins in
      let cover = random_cover rng k in
      let g = N.add_logic net ~name:(Printf.sprintf "g%d" i) cover fanins in
      gates := g :: !gates
    done;
    let all_gates = !gates in
    List.iter
      (fun l ->
        let candidates =
          if profile.G.feedback then all_gates @ pis else pis @ all_gates
        in
        let data =
          if profile.G.feedback && all_gates <> [] then pick rng all_gates
          else pick rng candidates
        in
        N.replace_fanin net l ~old_fanin:(N.latch_data net l) ~new_fanin:data)
      latches;
    let out_sources = if all_gates <> [] then all_gates else pis in
    List.iteri
      (fun i _ ->
        N.set_output net (Printf.sprintf "out%d" i) (pick rng out_sources))
      (List.init profile.G.npo Fun.id);
    N.check net;
    net
end
