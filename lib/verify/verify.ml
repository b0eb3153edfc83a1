module N = Netlist.Network

type severity = Error | Warning

type diagnostic = {
  rule_id : string;
  severity : severity;
  node_ids : int list;
  message : string;
}

let diag ?(severity = Error) rule_id node_ids message =
  { rule_id; severity; node_ids = List.sort_uniq compare node_ids; message }

(* --- rule group: graph integrity ------------------------------------------- *)

let count_in_array x a =
  Array.fold_left (fun acc y -> if y = x then acc + 1 else acc) 0 a

let count_in_list x l =
  List.fold_left (fun acc y -> if y = x then acc + 1 else acc) 0 l

let check_graph net out =
  let emit d = out := d :: !out in
  let live = N.all_nodes net in
  let cap = N.capacity net in
  let alive id = id >= 0 && id < cap && N.node_opt net id <> None in
  let seen_name = Hashtbl.create 64 in
  List.iter
    (fun n ->
      let id = n.N.id in
      (* node registered under its own id *)
      (match N.node_opt net id with
       | Some n' when n' == n -> ()
       | Some _ | None ->
         emit
           (diag "graph/node-id" [ id ]
              (Printf.sprintf "node %s#%d is not stored under its id" n.N.name
                 id)));
      (* fanin edges: in range, live, and mirrored by the producer's fanouts *)
      let distinct_fanins =
        List.sort_uniq compare (Array.to_list n.N.fanins)
      in
      List.iter
        (fun f ->
          if not (alive f) then
            emit
              (diag "graph/fanin-dangling" [ id ]
                 (Printf.sprintf "%s#%d reads deleted or out-of-range node %d"
                    n.N.name id f))
          else begin
            let producer = N.node net f in
            let in_fanins = count_in_array f n.N.fanins in
            let in_fanouts = count_in_list id producer.N.fanouts in
            if in_fanins <> in_fanouts then
              emit
                (diag "graph/edge-asymmetric" [ f; id ]
                   (Printf.sprintf
                      "edge %s#%d -> %s#%d: %d fanin slot(s) vs %d fanout \
                       entry(ies)"
                      producer.N.name f n.N.name id in_fanins in_fanouts))
          end)
        distinct_fanins;
      (* fanout entries: live, and mirrored by the consumer's fanins (the
         consumer-side sweep above only covers consumers that list us) *)
      List.iter
        (fun c ->
          if not (alive c) then
            emit
              (diag "graph/fanout-dangling" [ id ]
                 (Printf.sprintf
                    "%s#%d lists deleted or out-of-range consumer %d" n.N.name
                    id c))
          else begin
            let consumer = N.node net c in
            if count_in_array id consumer.N.fanins = 0 then
              emit
                (diag "graph/edge-asymmetric" [ id; c ]
                   (Printf.sprintf
                      "%s#%d lists consumer %s#%d which does not read it"
                      n.N.name id consumer.N.name c))
          end)
        (List.sort_uniq compare n.N.fanouts);
      (* arity and cover-shape invariants per kind *)
      (match n.N.kind with
       | N.Logic c ->
         let width = c.Logic.Cover.nvars in
         if width <> Array.length n.N.fanins then
           emit
             (diag "graph/cover-arity" [ id ]
                (Printf.sprintf "%s#%d: cover over %d vars but %d fanins"
                   n.N.name id width (Array.length n.N.fanins)));
         List.iter
           (fun cube ->
             if Logic.Cube.nvars cube <> width then
               emit
                 (diag "graph/cube-width" [ id ]
                    (Printf.sprintf
                       "%s#%d: cube of width %d in a cover over %d vars"
                       n.N.name id (Logic.Cube.nvars cube) width)))
           c.Logic.Cover.cubes
       | N.Latch _ ->
         if Array.length n.N.fanins <> 1 then
           emit
             (diag "graph/latch-arity" [ id ]
                (Printf.sprintf "latch %s#%d has %d fanins (wants exactly 1)"
                   n.N.name id (Array.length n.N.fanins)))
       | N.Input | N.Const _ ->
         if Array.length n.N.fanins <> 0 then
           emit
             (diag "graph/source-arity" [ id ]
                (Printf.sprintf "source %s#%d has %d fanins" n.N.name id
                   (Array.length n.N.fanins))));
      if n.N.name = "" then
        emit
          (diag ~severity:Warning "graph/name-empty" [ id ]
             (Printf.sprintf "node #%d has an empty name" id));
      (* names are unique: a written BLIF would define one of them twice *)
      match Hashtbl.find_opt seen_name n.N.name with
      | Some first ->
        emit
          (diag "graph/name-duplicate" [ first; id ]
             (Printf.sprintf "name %s held by nodes #%d and #%d" n.N.name
                first id))
      | None -> Hashtbl.add seen_name n.N.name id)
    live;
  (* primary outputs reference live nodes, names unique *)
  let seen_output = Hashtbl.create 16 in
  List.iter
    (fun (name, id) ->
      if not (alive id) then
        emit
          (diag "graph/output-dangling" [ id ]
             (Printf.sprintf "primary output %s driven by dead node %d" name
                id));
      if Hashtbl.mem seen_output name then
        emit
          (diag "graph/output-duplicate" [ id ]
             (Printf.sprintf "primary output %s declared twice" name))
      else Hashtbl.add seen_output name ())
    (N.output_ids net);
  (* the input list and the Input nodes agree *)
  let listed = Hashtbl.create 16 in
  List.iter
    (fun id ->
      Hashtbl.replace listed id ();
      match N.node_opt net id with
      | Some n when N.is_input n -> ()
      | Some n ->
        emit
          (diag "graph/input-list" [ id ]
             (Printf.sprintf "input list entry %s#%d is not an Input node"
                n.N.name id))
      | None ->
        emit
          (diag "graph/input-list" [ id ]
             (Printf.sprintf "input list references dead node %d" id)))
    (N.input_ids net);
  List.iter
    (fun n ->
      if N.is_input n && not (Hashtbl.mem listed n.N.id) then
        emit
          (diag "graph/input-list" [ n.N.id ]
             (Printf.sprintf "Input node %s#%d missing from the input list"
                n.N.name n.N.id)))
    live

(* --- rule group: combinational loops --------------------------------------- *)

(* Tarjan over the live logic nodes with latch/input/const boundaries removed;
   every SCC of size > 1, and every logic node reading itself, is a
   combinational cycle.  Defensive: dangling fanins are simply skipped (the
   graph rules report them). *)
let check_loops net out =
  let cap = N.capacity net in
  if cap > 0 then begin
    let index = Array.make cap (-1) in
    let low = Array.make cap 0 in
    let on_stack = Array.make cap false in
    let stack = ref [] in
    let counter = ref 0 in
    let logic_fanins n =
      Array.to_list n.N.fanins
      |> List.filter_map (fun f ->
             if f >= 0 && f < cap then
               match N.node_opt net f with
               | Some m when N.is_logic m -> Some m
               | Some _ | None -> None
             else None)
    in
    let rec strong n =
      let id = n.N.id in
      index.(id) <- !counter;
      low.(id) <- !counter;
      incr counter;
      stack := id :: !stack;
      on_stack.(id) <- true;
      List.iter
        (fun m ->
          if index.(m.N.id) < 0 then begin
            strong m;
            low.(id) <- min low.(id) low.(m.N.id)
          end
          else if on_stack.(m.N.id) then
            low.(id) <- min low.(id) index.(m.N.id))
        (logic_fanins n);
      if low.(id) = index.(id) then begin
        let rec pop acc =
          match !stack with
          | [] -> acc
          | x :: rest ->
            stack := rest;
            on_stack.(x) <- false;
            if x = id then x :: acc else pop (x :: acc)
        in
        let scc = pop [] in
        let is_cycle =
          match scc with
          | [ only ] -> count_in_array only n.N.fanins > 0 && only = id
          | _ :: _ :: _ -> true
          | [] -> false
        in
        if is_cycle then
          out :=
            diag "loop/combinational-cycle" scc
              (Printf.sprintf "combinational cycle through %d logic node(s)"
                 (List.length scc))
            :: !out
      end
    in
    List.iter
      (fun n -> if index.(n.N.id) < 0 then strong n)
      (N.logic_nodes net)
  end

(* --- rule group: retiming / register-equivalence soundness ------------------ *)

(* Structural hash of a combinational cone, memoized per node; latch leaves
   are canonicalized to their class representative so that classes whose
   members read different-but-equivalent registers still compare equal.
   Cycles (reported by the loop rule) hash to a sentinel instead of
   diverging. *)
let cone_signature net ~canon memo root_id =
  let rec go id =
    match Hashtbl.find_opt memo id with
    | Some s -> s
    | None ->
      Hashtbl.add memo id (Hashtbl.hash "in-progress");
      let s =
        match N.node_opt net id with
        | None -> Hashtbl.hash ("dead", id)
        | Some n -> (
          match n.N.kind with
          | N.Input -> Hashtbl.hash ("input", id)
          | N.Const b -> Hashtbl.hash ("const", b)
          | N.Latch _ -> Hashtbl.hash ("latch", canon id)
          | N.Logic c ->
            let cubes =
              List.sort compare
                (List.map Logic.Cube.to_string c.Logic.Cover.cubes)
            in
            Hashtbl.hash
              (cubes, List.map go (Array.to_list n.N.fanins)))
      in
      Hashtbl.replace memo id s;
      s
  in
  go root_id

let init_string = function
  | N.I0 -> "0"
  | N.I1 -> "1"
  | N.Ix -> "x"

let check_retiming net equiv_classes out =
  let emit d = out := d :: !out in
  (* class representative for leaf canonicalization: min latch id per class *)
  let rep = Hashtbl.create 16 in
  List.iter
    (fun cls ->
      match List.sort compare cls with
      | [] -> ()
      | least :: _ ->
        List.iter (fun id -> Hashtbl.replace rep id least) cls)
    equiv_classes;
  let canon id = match Hashtbl.find_opt rep id with Some r -> r | None -> id in
  let memo = Hashtbl.create 256 in
  List.iter
    (fun cls ->
      (* merge-back and sweeping legitimately consume class members; only the
         survivors are constrained *)
      let live =
        List.filter_map (fun id -> N.node_opt net id)
          (List.sort_uniq compare cls)
      in
      let latches, others = List.partition N.is_latch live in
      List.iter
        (fun n ->
          emit
            (diag "retiming/class-not-latch" [ n.N.id ]
               (Printf.sprintf
                  "equivalence-class member %s#%d is not a latch" n.N.name
                  n.N.id)))
        others;
      match latches with
      | [] | [ _ ] -> ()
      | first :: rest ->
        List.iter
          (fun l ->
            if N.latch_init l <> N.latch_init first then
              emit
                (diag "retiming/init-mismatch"
                   [ first.N.id; l.N.id ]
                   (Printf.sprintf
                      "equivalent latches %s#%d (init %s) and %s#%d (init %s) \
                       disagree"
                      first.N.name first.N.id
                      (init_string (N.latch_init first))
                      l.N.name l.N.id
                      (init_string (N.latch_init l)))))
          rest;
        (* replicated copies must drive isomorphic input cones *)
        let sig_of l =
          match Array.length l.N.fanins with
          | 1 -> Some (cone_signature net ~canon memo l.N.fanins.(0))
          | _ -> None (* latch-arity rule reports this *)
        in
        (match sig_of first with
         | None -> ()
         | Some s0 ->
           List.iter
             (fun l ->
               match sig_of l with
               | Some s when s <> s0 ->
                 emit
                   (diag "retiming/cone-mismatch" [ first.N.id; l.N.id ]
                      (Printf.sprintf
                         "equivalent latches %s#%d and %s#%d have \
                          non-isomorphic driver cones"
                         first.N.name first.N.id l.N.name l.N.id))
               | Some _ | None -> ())
             rest))
    equiv_classes

(* A min-area merge may only collapse sibling latches whose DC_ret classes
   permit it: a merge group that straddles two distinct classes would leave
   don't-care cubes referring to registers that no longer track their class,
   so the simplifications justified by those cubes become unsound.  Groups
   entirely inside one class (or touching at most one class plus class-free
   latches) are fine. *)
let merge_legal ~equiv_classes ids =
  let class_of = Hashtbl.create 16 in
  List.iteri
    (fun ci cls -> List.iter (fun id -> Hashtbl.replace class_of id ci) cls)
    equiv_classes;
  let hit =
    List.sort_uniq compare
      (List.filter_map (fun id -> Hashtbl.find_opt class_of id) ids)
  in
  match hit with
  | [] | [ _ ] -> []
  | _ :: _ :: _ ->
    [ diag "retiming/merge-back" ids
        (Printf.sprintf
           "merge group of %d latch(es) straddles %d distinct \
            register-equivalence classes"
           (List.length ids) (List.length hit)) ]

(* --- rule group: binding sanity --------------------------------------------- *)

let check_bindings net out =
  let emit d = out := d :: !out in
  List.iter
    (fun n ->
      match n.N.binding with
      | None -> ()
      | Some b ->
        (* logic nodes carry gate bindings; latches carry the register cell
           (the mapper's "dff").  Sources must stay unbound. *)
        if not (N.is_logic n || N.is_latch n) then
          emit
            (diag "binding/on-source" [ n.N.id ]
               (Printf.sprintf "source node %s#%d carries binding %s"
                  n.N.name n.N.id b.N.gate_name));
        let bad_float x = not (x >= 0.0) || x <> x || x = infinity in
        if bad_float b.N.gate_area then
          emit
            (diag "binding/area" [ n.N.id ]
               (Printf.sprintf "%s#%d: gate %s has invalid area %g" n.N.name
                  n.N.id b.N.gate_name b.N.gate_area));
        if b.N.gate_delay < 0 then
          emit
            (diag "binding/delay" [ n.N.id ]
               (Printf.sprintf "%s#%d: gate %s has invalid delay %g" n.N.name
                  n.N.id b.N.gate_name (Netlist.Delay.to_float b.N.gate_delay))))
    (N.all_nodes net)

(* --- driver ------------------------------------------------------------------ *)

let m_runs = Obs.Metrics.counter "verify.runs"

(* One counter per rule group ("graph/..." -> verify.fired.graph); the journal
   group comes from Audit.diff rather than [run]. *)
let fired_counters =
  List.map
    (fun g -> (g, Obs.Metrics.counter ("verify.fired." ^ g)))
    [ "graph"; "loop"; "retiming"; "binding"; "journal" ]

let record_fired diags =
  if Obs.Metrics.enabled () then
    List.iter
      (fun d ->
        let group =
          match String.index_opt d.rule_id '/' with
          | Some i -> String.sub d.rule_id 0 i
          | None -> d.rule_id
        in
        match List.assoc_opt group fired_counters with
        | Some c -> Obs.Metrics.incr c
        | None -> ())
      diags

let run ?(equiv_classes = []) net =
  Obs.Metrics.incr m_runs;
  let out = ref [] in
  check_graph net out;
  check_loops net out;
  if equiv_classes <> [] then check_retiming net equiv_classes out;
  check_bindings net out;
  let out = List.rev !out in
  record_fired out;
  let severity_rank = function Error -> 0 | Warning -> 1 in
  List.stable_sort
    (fun a b ->
      match compare (severity_rank a.severity) (severity_rank b.severity) with
      | 0 -> compare (a.rule_id, a.node_ids) (b.rule_id, b.node_ids)
      | c -> c)
    out

let errors diags = List.filter (fun d -> d.severity = Error) diags

let severity_string = function Error -> "error" | Warning -> "warning"

let render diags =
  String.concat "\n"
    (List.map
       (fun d ->
         Printf.sprintf "%s[%s] nodes %s: %s"
           (severity_string d.severity)
           d.rule_id
           (String.concat "," (List.map string_of_int d.node_ids))
           d.message)
       diags)

let to_json diags =
  Obs.Json.List
    (List.map
       (fun d ->
         Obs.Json.Obj
           [ ("rule_id", Obs.Json.Str d.rule_id);
             ("severity", Obs.Json.Str (severity_string d.severity));
             ( "node_ids",
               Obs.Json.List (List.map (fun i -> Obs.Json.Int i) d.node_ids) );
             ("message", Obs.Json.Str d.message) ])
       diags)

exception Verification_failed of string

let fail_if_errors ~label ~pass diags =
  match errors diags with
  | [] -> ()
  | errs ->
    raise
      (Verification_failed
         (Printf.sprintf "%s: verifier failed after pass '%s' (%d error(s)):\n%s"
            label pass (List.length errs) (render errs)))

let expect_clean ?equiv_classes ~label ~pass net =
  fail_if_errors ~label ~pass (run ?equiv_classes net)

(* --- revision audit ----------------------------------------------------------- *)

module Audit = struct
  type snapshot = {
    before : N.t;
    revision : int;
    outputs_rev : int;
  }

  let snapshot net =
    { before = N.copy net;
      revision = N.revision net;
      outputs_rev = N.outputs_revision net }

  let node_changed a b =
    a.N.kind <> b.N.kind
    || a.N.fanins <> b.N.fanins
    || List.sort compare a.N.fanouts <> List.sort compare b.N.fanouts
    || a.N.binding <> b.N.binding

  let diff snap net =
    let out = ref [] in
    if N.revision net = snap.revision then begin
      let cap = max (N.capacity snap.before) (N.capacity net) in
      for id = 0 to cap - 1 do
        let describe what name =
          out :=
            diag "journal/unjournaled" [ id ]
              (Printf.sprintf "node %s#%d was %s without a revision bump"
                 name id what)
            :: !out
        in
        match N.node_opt snap.before id, N.node_opt net id with
        | None, None -> ()
        | Some a, None -> describe "deleted" a.N.name
        | None, Some b -> describe "created" b.N.name
        | Some a, Some b -> if node_changed a b then describe "mutated" b.N.name
      done
    end;
    if
      N.output_ids snap.before <> N.output_ids net
      && N.outputs_revision net = snap.outputs_rev
    then
      out :=
        diag "journal/outputs" []
          "primary-output list changed without an outputs_revision bump"
        :: !out;
    let diags = List.rev !out in
    record_fired diags;
    diags
end

(* --- pass boundaries ---------------------------------------------------------- *)

type boundary = {
  pass : string;
  classes : int list list;
  input : N.t;
  in_place : bool;
}

type hook = boundary -> N.t -> unit

type 'a shape =
  | In_place of N.t
  | Fresh of N.t * ('a -> N.t option)

(* Hooks start in list order; their output checks also run in list order, so
   the first hook (the daemon's cancel guard) acts before any checking work
   at every boundary. *)
let pass hooks ~cat ?(classes = []) ?declared name shape f =
  let start ~classes ~in_place input =
    List.map (fun h -> h { pass = name; classes; input; in_place }) hooks
  in
  let leave checks net = List.iter (fun check -> check net) checks in
  match shape with
  | In_place net ->
    let result =
      Obs.Trace.span ~cat name (fun () ->
          let checks = start ~classes ~in_place:true net in
          let result = f () in
          leave checks net;
          result)
    in
    (* classes the pass itself declared: one more crossing, after the span,
       on the unchanged network *)
    Option.iter
      (fun declared ->
        leave (start ~classes:(declared ()) ~in_place:false net) net)
      declared;
    result
  | Fresh (input, output) ->
    let checks = start ~classes ~in_place:false input in
    let result = Obs.Trace.span ~cat name f in
    Option.iter (leave checks) (output result);
    result

(* an in-place pass runs under the revision audit: snapshot as it starts,
   diff plus the static rules once it is done *)
let hook ~label b =
  let equiv_classes = b.classes and pass = b.pass in
  if b.in_place then begin
    let snap = Audit.snapshot b.input in
    fun net ->
      fail_if_errors ~label ~pass
        (Audit.diff snap net @ run ~equiv_classes net)
  end
  else fun net -> expect_clean ~equiv_classes ~label ~pass net
