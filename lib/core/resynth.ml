module N = Netlist.Network

type dc_mode =
  | Dc_cover
  | Substitution

type options = {
  lib : Techmap.Genlib.t;
  model : Sta.model;
  max_cone_leaves : int;
  dc_mode : dc_mode;
  remap : bool;
  retime_post : bool;
  min_area_post : bool;
  guard_regression : bool;
}

let default_options =
  { lib = Techmap.Genlib.mcnc_lite;
    model = Sta.mapped_delay;
    max_cone_leaves = 14;
    dc_mode = Dc_cover;
    remap = true;
    retime_post = true;
    min_area_post = true;
    guard_regression = true }

type outcome = {
  network : N.t;
  applied : bool;
  note : string;
  stem_splits : int;
  equivalence_classes : int;
  forward_moves : int;
  simplified_cones : int;
}

(* --- step 1: fanout-free critical path ------------------------------------- *)

(* Walking from the end of the path towards the registers, give every path
   node a private connection to its successor: all other consumers (and any
   primary outputs) move to a freshly duplicated gate.  Duplication cascades
   naturally because a clone re-reads the previous path node.  Returns the
   clones: they are path logic too and take part in the retiming engine
   (the paper's g1/g1' duplication). *)
let make_path_fanout_free_clones net path =
  let duplications = ref 0 in
  let clones = ref [] in
  let arr = Array.of_list path in
  for i = Array.length arr - 2 downto 0 do
    let node = arr.(i) and next = arr.(i + 1) in
    let other_consumers =
      List.sort_uniq compare node.N.fanouts
      |> List.filter (fun cid -> cid <> next.N.id)
    in
    let drives_po = N.drives_output net node in
    if other_consumers <> [] || drives_po then begin
      incr duplications;
      (* one clone serves every off-path consumer *)
      let clone =
        match other_consumers with
        | first :: rest ->
          let c = N.duplicate_for net node ~consumer:(N.node net first) in
          List.iter
            (fun cid ->
              N.replace_fanin net (N.node net cid) ~old_fanin:node ~new_fanin:c)
            rest;
          c
        | [] ->
          (* only primary outputs to move: clone manually *)
          let c = N.add_logic net (N.cover_of node)
              (List.map (N.node net) (Array.to_list node.N.fanins))
          in
          N.set_binding net c node.N.binding;
          c
      in
      if drives_po then
        List.iter
          (fun (name, driver) ->
            if driver.N.id = node.N.id then N.retarget_output net name clone)
          (N.outputs net);
      clones := clone :: !clones
    end
  done;
  (!duplications, !clones)

let make_path_fanout_free net path =
  fst (make_path_fanout_free_clones net path)

(* --- step 0: pick a critical path the engine can work on -------------------- *)

(* Among equally critical paths, prefer one whose head gate reads only
   registers: forward retiming needs a register-fed head (the paper's
   "retimable gates" precondition).  [good v] marks nodes from which walking
   further back along critical fanins can reach such a head. *)
let engine_critical_path net model =
  let timing = Sta.analyze net model in
  if timing.Sta.critical_end < 0 then []
  else begin
    let arrival = timing.Sta.arrival in
    let good = Hashtbl.create 64 in
    let rec is_good v =
      match Hashtbl.find_opt good v.N.id with
      | Some b -> b
      | None ->
        Hashtbl.add good v.N.id false (* cycles are broken pessimistically *)
        ;
        let result =
          match v.N.kind with
          | N.Input | N.Const _ | N.Latch _ -> false
          | N.Logic _ ->
            if arrival.(v.N.id) = model v then
              Array.length v.N.fanins > 0
              && Array.for_all (fun f -> N.is_latch (N.node net f)) v.N.fanins
            else begin
              let need = arrival.(v.N.id) - model v in
              Array.exists
                (fun f -> arrival.(f) = need && is_good (N.node net f))
                v.N.fanins
            end
        in
        Hashtbl.replace good v.N.id result;
        result
    in
    let rec walk id acc =
      let v = N.node net id in
      match v.N.kind with
      | N.Input | N.Const _ | N.Latch _ -> acc
      | N.Logic _ ->
        let acc = v :: acc in
        let need = arrival.(v.N.id) - model v in
        let critical_fanins =
          Array.to_list v.N.fanins |> List.filter (fun f -> arrival.(f) = need)
        in
        let pick =
          let preferred =
            List.find_opt (fun f -> is_good (N.node net f)) critical_fanins
          in
          match preferred, critical_fanins with
          | Some f, _ -> Some f
          | None, f :: _ -> Some f
          | None, [] -> None
        in
        (match pick with
         | Some f when N.is_logic (N.node net f) -> walk f acc
         | Some _ | None -> acc)
    in
    (* several endpoints may be equally critical; prefer one whose path can
       reach a register-fed head *)
    let endpoints =
      List.map (fun l -> (N.latch_data net l).N.id) (N.latches net)
      @ List.map (fun (_, d) -> d.N.id) (N.outputs net)
    in
    let critical_endpoints =
      List.sort_uniq compare
        (List.filter (fun id -> arrival.(id) = timing.Sta.period) endpoints)
    in
    let start =
      match
        List.find_opt (fun id -> is_good (N.node net id)) critical_endpoints
      with
      | Some id -> id
      | None -> timing.Sta.critical_end
    in
    walk start []
  end

(* --- step 4: DC_ret-driven cone simplification ------------------------------ *)

let m_cones = Obs.Metrics.counter "resynth.cones"
let m_cones_too_wide = Obs.Metrics.counter "resynth.cones_too_wide"
let m_cones_with_dc = Obs.Metrics.counter "resynth.cones_with_dc"

let simplify_cone net classes ~dc_mode ~max_cone_leaves root =
  Obs.Metrics.incr m_cones;
  match Dontcare.Cone.collapse ~max_leaves:max_cone_leaves net root with
  | exception Dontcare.Cone.Cone_too_wide _ ->
    Obs.Metrics.incr m_cones_too_wide;
    (false, false)
  | collapsed ->
    let leaves = collapsed.Dontcare.Cone.leaves in
    let nvars = Array.length leaves in
    let base = collapsed.Dontcare.Cone.cover in
    let minimized_with_dc, dc_was_useful =
      match dc_mode with
      | Dc_cover ->
        let var_of_latch id =
          let found = ref None in
          Array.iteri
            (fun i leaf -> if leaf.N.id = id then found := Some i)
            leaves;
          !found
        in
        let dc = Dontcare.Classes.dc_cover classes ~nvars ~var_of_latch in
        let with_dc = Logic.Minimize.minimize ~dc base in
        (* the no-DC control minimization only scores [dc_was_useful]
           ([minimize] never mutates its input cover); with no DC cube it
           would minimize the same cover again *)
        if Logic.Cover.is_empty dc then (with_dc, false)
        else begin
          Obs.Metrics.incr m_cones_with_dc;
          let without_dc = Logic.Minimize.minimize base in
          ( with_dc,
            Logic.Cover.lit_count with_dc < Logic.Cover.lit_count without_dc )
        end
      | Substitution ->
        (* rename every latch leaf to the first leaf of its class; a cube
           carrying opposing literals on two equivalent registers denotes
           states ruled out by the equivalence (exactly DC_ret) and is
           dropped; same-phase literals merge *)
        let canon = Array.init nvars Fun.id in
        for i = 0 to nvars - 1 do
          if N.is_latch leaves.(i) then
            for j = 0 to i - 1 do
              if
                canon.(i) = i
                && N.is_latch leaves.(j)
                && Dontcare.Classes.are_equal classes leaves.(i) leaves.(j)
              then canon.(i) <- j
            done
        done;
        let substitute_cube cube =
          let out = Logic.Cube.universe nvars in
          let consistent = ref true in
          Logic.Cube.iteri
            (fun v l ->
              if l <> Logic.Cube.Both then begin
                let v' = canon.(v) in
                if Logic.Cube.get out v' = Logic.Cube.Both then
                  Logic.Cube.set out v' l
                else if Logic.Cube.get out v' <> l then consistent := false
              end)
            cube;
          if !consistent then Some out else None
        in
        let substituted =
          Logic.Cover.make nvars
            (List.filter_map substitute_cube base.Logic.Cover.cubes)
        in
        let m = Logic.Minimize.minimize substituted in
        let any_substitution = ref false in
        Array.iteri (fun i c -> if c <> i then any_substitution := true) canon;
        if !any_substitution then Obs.Metrics.incr m_cones_with_dc;
        (m, !any_substitution)
    in
    (* Restrict the rebuilt node to its true support. *)
    let support = Logic.Cover.support minimized_with_dc in
    let support_map = Array.make nvars 0 in
    List.iteri (fun j v -> support_map.(v) <- j) support;
    let narrowed =
      Logic.Cover.rename minimized_with_dc (List.length support) support_map
    in
    let leaf_list = List.map (fun v -> leaves.(v)) support in
    N.set_function net root narrowed leaf_list;
    (true, dc_was_useful)

(* --- the full algorithm ------------------------------------------------------ *)

let stats_zero net note applied =
  { network = net;
    applied;
    note;
    stem_splits = 0;
    equivalence_classes = 0;
    forward_moves = 0;
    simplified_cones = 0 }

let m_applied = Obs.Metrics.counter "resynth.applied"
let m_guarded = Obs.Metrics.counter "resynth.guarded"
let m_skipped = Obs.Metrics.counter "resynth.skipped"
let m_stem_splits = Obs.Metrics.counter "resynth.stem_splits"
let m_classes = Obs.Metrics.counter "resynth.equivalence_classes"
let m_forward_moves = Obs.Metrics.counter "resynth.forward_moves"
let m_simplified = Obs.Metrics.counter "resynth.simplified_cones"
let m_period_ratio = Obs.Metrics.histogram "resynth.period_ratio_pct"
let m_register_ratio = Obs.Metrics.histogram "resynth.register_ratio_pct"
let m_area_ratio = Obs.Metrics.histogram "resynth.area_ratio_pct"

let resynthesize_impl ~options ~hooks original =
  let model = options.model in
  let original_period = Sta.clock_period original model in
  let net = N.copy original in
  let path = engine_critical_path net model in
  match path with
  | [] -> stats_zero (N.copy original) "no combinational logic" false
  | _ :: _ ->
    let _, clones =
      Verify.pass hooks ~cat:"resynth" "resynth/fanout-free"
        (Verify.In_place net) (fun () -> make_path_fanout_free_clones net path)
    in
    let path_ids =
      List.map (fun n -> n.N.id) path @ List.map (fun n -> n.N.id) clones
    in
    let on_path id = List.mem id path_ids in
    (* registers that fan out to the critical path *)
    let critical_fanout_registers =
      List.filter
        (fun l -> List.exists on_path l.N.fanouts)
        (N.latches net)
    in
    let classes = Dontcare.Classes.create () in
    let class_ids () = Dontcare.Classes.classes classes in
    let stem_splits = ref 0 in
    (* the split runs with no classes in force and declares the DC_ret
       classes: the hooks see those once the split is done *)
    Verify.pass hooks ~cat:"resynth" ~declared:class_ids "resynth/stem-split"
      (Verify.In_place net) (fun () ->
        List.iter
          (fun l ->
            let copies = Retiming.Moves.split_stem net l in
            match copies with
            | [] | [ _ ] -> ()
            | _ :: _ :: _ ->
              incr stem_splits;
              Dontcare.Classes.declare_class classes copies)
          critical_fanout_registers);
    if !stem_splits = 0 then
      stats_zero (N.copy original)
        "no multiple-fanout registers feed the critical path" false
    else begin
      (* retiming engine: forward retiming across path nodes to a fixpoint *)
      let forward_moves, new_latches =
        Verify.pass hooks ~cat:"resynth" ~classes:(class_ids ())
          "resynth/forward-fixpoint" (Verify.In_place net) (fun () ->
            Retiming.Moves.forward_fixpoint net path_ids)
      in
      if forward_moves = 0 then
        stats_zero (N.copy original)
          "critical path has no retimable gates" false
      else begin
        (* Simplify the next-state logic of the retimed registers using
           DC_ret, then every other latch-data and output cone (the
           surviving register copies appear in those cones through the
           duplicated gates and the feedback logic). *)
        let simplified = ref 0 in
        let simplify_data_of_latch latch =
          match N.node_opt net latch.N.id with
          | Some latch when N.is_latch latch ->
            let data = N.latch_data net latch in
            if N.is_logic data then begin
              let rebuilt, useful =
                simplify_cone net classes ~dc_mode:options.dc_mode
                  ~max_cone_leaves:options.max_cone_leaves data
              in
              if rebuilt && useful then incr simplified
            end
          | Some _ | None -> ()
        in
        (* newest latches first, as the engine loop historically recorded *)
        Verify.pass hooks ~cat:"resynth" ~classes:(class_ids ())
          "resynth/dc-simplify" (Verify.In_place net) (fun () ->
            List.iter simplify_data_of_latch (List.rev new_latches);
            List.iter simplify_data_of_latch (N.latches net);
            List.iter
              (fun (_, driver) ->
                match N.node_opt net driver.N.id with
                | Some d when N.is_logic d ->
                  let rebuilt, useful =
                    simplify_cone net classes ~dc_mode:options.dc_mode
                      ~max_cone_leaves:options.max_cone_leaves d
                  in
                  if rebuilt && useful then incr simplified
                | Some _ | None -> ())
              (N.outputs net));
        Verify.pass hooks ~cat:"resynth" ~classes:(class_ids ())
          "resynth/sweep" (Verify.In_place net) (fun () -> N.sweep net);
        (* duplicated gates frequently become identical again after the
           simplification; share them *)
        Verify.pass hooks ~cat:"resynth" ~classes:(class_ids ())
          "resynth/strash" (Verify.In_place net) (fun () ->
            ignore (Netlist.Strash.run net));
        (* local re-mapping.  The mapper builds a fresh network: the DC_ret
           class ids refer to the old one, so the retiming-soundness rule is
           dropped once the working copy is replaced ([classes_valid]). *)
        let net, classes_valid =
          if options.remap then
            ( Verify.pass hooks ~cat:"resynth" "resynth/remap"
                (Verify.Fresh (net, Option.some))
                (fun () ->
                  Techmap.Mapper.map net ~lib:options.lib),
              false )
          else (net, true)
        in
        (* redistribute the registers accumulated at the path's end: the
           restructured logic usually admits a better placement (see
           DESIGN.md, ablation `postretime`) *)
        let net, classes_valid =
          if options.retime_post then begin
            match
              Verify.pass hooks ~cat:"resynth" "resynth/post-retime"
                (Verify.Fresh
                   (net, function Ok (r, _) -> Some r | Error _ -> None))
                (fun () -> Retiming.Minperiod.retime_min_period net ~model)
            with
            | Ok (better, _) -> (better, false)
            | Error _ -> (net, classes_valid)
          end
          else (net, classes_valid)
        in
        (* constrained min-area retiming within the current period.  Every
           rejected move is rolled back by [N.restore], which bumps the
           revision, so the audit covers reverts too; class-constrained
           sibling merging applies while the working copy still carries the
           class ids. *)
        let period_now = Sta.clock_period net model in
        if options.min_area_post then begin
          let min_area_classes = if classes_valid then class_ids () else [] in
          ignore
            (Verify.pass hooks ~cat:"resynth" ~classes:min_area_classes
               "resynth/min-area" (Verify.In_place net) (fun () ->
                 Retiming.Minarea.minimize_registers ~classes:min_area_classes
                   net ~model ~max_period:period_now))
        end;
        let final_period = Sta.clock_period net model in
        (* Accept only genuine gains: a faster clock, or the same clock with
           fewer registers.  This is the paper's open "how far should forward
           retiming be performed such that our technique can be stopped from
           doing any harm" question, answered by construction. *)
        let regressed =
          final_period > original_period
          || (final_period = original_period
              && N.num_latches net >= N.num_latches original)
        in
        if options.guard_regression && regressed then
          { network = N.copy original;
            applied = false;
            note =
              Printf.sprintf
                "guarded: resynthesis would regress period %.2f -> %.2f"
                (Netlist.Delay.to_float original_period)
                (Netlist.Delay.to_float final_period);
            stem_splits = !stem_splits;
            equivalence_classes =
              List.length (Dontcare.Classes.classes classes);
            forward_moves;
            simplified_cones = !simplified }
        else
          { network = net;
            applied = true;
            note = "";
            stem_splits = !stem_splits;
            equivalence_classes =
              List.length (Dontcare.Classes.classes classes);
            forward_moves;
            simplified_cones = !simplified }
      end
    end

let resynthesize ?(options = default_options) ?(hooks = []) original =
  let outcome =
    Obs.Trace.span ~cat:"flow" "resynthesis" (fun () ->
        resynthesize_impl ~options ~hooks original)
  in
  if Obs.Metrics.enabled () then begin
    if outcome.applied then begin
      Obs.Metrics.incr m_applied;
      Obs.Metrics.add m_stem_splits outcome.stem_splits;
      Obs.Metrics.add m_classes outcome.equivalence_classes;
      Obs.Metrics.add m_forward_moves outcome.forward_moves;
      Obs.Metrics.add m_simplified outcome.simplified_cones;
      let p0 = Sta.clock_period original options.model in
      let p1 = Sta.clock_period outcome.network options.model in
      if p0 > 0 then
        Obs.Metrics.observe m_period_ratio (((100 * p1) + (p0 / 2)) / p0);
      let r0 = N.num_latches original and r1 = N.num_latches outcome.network in
      if r0 > 0 then
        Obs.Metrics.observe m_register_ratio (((100 * r1) + (r0 / 2)) / r0);
      let a0 = Techmap.Mapper.mapped_area original ~lib:options.lib in
      let a1 = Techmap.Mapper.mapped_area outcome.network ~lib:options.lib in
      if a0 > 0.0 then
        Obs.Metrics.observe m_area_ratio
          (int_of_float ((100.0 *. a1 /. a0) +. 0.5))
    end
    else if String.starts_with ~prefix:"guarded" outcome.note then begin
      (* the DC_ret work on a guarded row is done before the guard drops it *)
      Obs.Metrics.incr m_guarded;
      Obs.Metrics.add m_simplified outcome.simplified_cones
    end
    else Obs.Metrics.incr m_skipped
  end;
  outcome
