(* The repo's static lint: one analyzer over compiler-libs typedtrees.

   Loads [.cmt] files (the repo builds with [-bin-annot]; dune emits them
   for every module) and runs two kinds of rule on real binding and scope
   resolution.  Five name rules look up resolved identifier paths, so
   [Hashtbl.fold] reached through [open] or a module alias is caught and
   a local binding that merely shares the name is not:

   - [nondet/hashtbl-order] — [Hashtbl.iter]/[fold]/[to_seq*], unless
     the call is an argument of a [*.sort]/[*.stable_sort]/[*.sort_uniq]
     call (piping into one with [|>] or [@@] counts).
   - [nondet/wall-clock] — [Unix.gettimeofday], [Unix.time], [Sys.time].
   - [nondet/ambient-random] — any [Random] value outside [Random.State].
   - [nondet/domain-id] — [Domain.self].
   - [mm/physical-eq-key] — [Obj.repr], [Obj.magic], or [==] inside a
     [Hashtbl.*] application.

   Three dataflow rules follow closures and module state:

   - [typed/capture-escape] — a thunk passed to the scheduler
     ([Sched.fork] / [Core.Parallel.fork]/[map]/[map_list]) whose closure
     captures a [ref], [Hashtbl.t] or [Buffer.t] binding from an enclosing
     scope, or writes a mutable record field of a captured value, without
     routing through [Atomic], a [Mutex]-guarded section, [Domain.DLS] or
     the obs registries.  This is the per-request-isolation proof
     the resynthesis daemon needs: no forked task may reach
     unsynchronized mutable state.
   - [typed/module-escape] — module-level mutable state reachable from
     the flow entry points ([Flow.run_all], [Report.Table.run_suite*],
     the [bin/] executables) with no synchronization wrapper: not
     [Atomic]/[Obs.Locked]/[Mutex]/[Condition]/[Domain.DLS], and not
     inside the sanctioned registries (lib/obs).
   - [typed/blocking-in-task] — [Mutex.lock], [Condition.wait],
     [Obs.Locked.await], [Unix] blocking calls or [Thread.delay]
     syntactically reachable inside a forked task body (directly or
     through same-unit helpers): the no-help fork-join scheduler parks a
     whole worker for the duration, so a blocked task stalls the pool.

   Lock discipline is not a rule: every lock in [lib/] is an [Obs.Locked.t]
   that owns the value it guards, so an unlocked access does not compile.

   Soundness posture: the analyzer prefers silence to noise.  It is
   intraprocedural plus one same-unit hop (thunks resolved to local
   definitions, blocking calls chased through same-unit helpers), does
   not expand type aliases without an environment, and treats lambdas it
   cannot see called as unreachable.  Every deliberate gap is documented
   in DESIGN.md §15.  Findings use the [Lint_common] report shape.  This
   module owns every waiver check: it reports unjustified, unknown-rule
   and stale waivers, in-source and [LINT_WAIVERS] alike, and every [.ml]
   source it was asked to cover that no readable [.cmt] unit claims. *)

type finding = Lint_common.finding = {
  rule_id : string;
  sites : string list;
  message : string;
}

let rule_ids =
  [ "mm/physical-eq-key"; "nondet/ambient-random"; "nondet/domain-id";
    "nondet/hashtbl-order"; "nondet/wall-clock"; "typed/blocking-in-task";
    "typed/capture-escape"; "typed/module-escape" ]

type config = {
  source_root : string;
  entry_points : string list;
  entry_path_prefixes : string list;
  sanctioned_path_fragments : string list;
}

let default_config =
  { source_root = ".";
    entry_points =
      [ "Flow.run_all"; "Table.run_suite"; "Table.run_suite_timed" ];
    entry_path_prefixes = [ "bin/" ];
    sanctioned_path_fragments = [ "lib/obs" ] }

(* --- name plumbing ---------------------------------------------------------------- *)

(* "Core__Flow" (wrapped-library mangling) -> "Core.Flow" *)
let norm_name s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && s.[!i] = '_' && s.[!i + 1] = '_' then begin
      Buffer.add_char b '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let ends_with ~suffix s =
  let ls = String.length s and lx = String.length suffix in
  ls >= lx && String.sub s (ls - lx) lx = suffix

let starts_with ~prefix s =
  let ls = String.length s and lx = String.length prefix in
  ls >= lx && String.sub s 0 lx = prefix

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn > 0 && go 0

(* dotted-path suffix: "Core.Parallel.fork" matches "Parallel.fork" and
   "fork" only at component boundaries *)
let dotted_suffix name cand =
  name = cand || ends_with ~suffix:("." ^ cand) name

let loc_site (loc : Location.t) fallback_file =
  let p = loc.loc_start in
  let f = if p.pos_fname = "" then fallback_file else p.pos_fname in
  Printf.sprintf "%s:%d" f p.pos_lnum

(* --- type classification ---------------------------------------------------------- *)

let head_tycon (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Some (norm_name (Path.name p))
  | _ -> None

(* mutable containers whose capture by a forked thunk is a finding *)
let capture_mutable_tycons = [ "Stdlib.ref"; "ref"; "Hashtbl.t"; "Buffer.t" ]

(* additionally hazardous as module-level shared state *)
let global_mutable_tycons =
  capture_mutable_tycons @ [ "Queue.t"; "Stack.t"; "bytes" ]

(* synchronization wrappers: state routed through these is sanctioned
   ([Locked.t] is [Obs.Locked], a mutex that owns what it guards) *)
let sync_tycons =
  [ "Atomic.t"; "Locked.t"; "Mutex.t"; "Condition.t";
    "Semaphore.Counting.t"; "Semaphore.Binary.t"; "DLS.key" ]

let tycon_in ty cands =
  match ty with
  | None -> false
  | Some t -> List.exists (fun c -> dotted_suffix t c) cands

(* --- call-site classification ----------------------------------------------------- *)

(* fork sites: the scheduler entry points that move a closure to another
   domain.  [Sched] is the engine; [Parallel] its [Core] re-export (and
   the stub modules tests compile mutants against). *)
let fork_fns =
  [ "Sched.fork"; "Parallel.fork"; "Sched.map"; "Parallel.map";
    "Sched.map_list"; "Parallel.map_list" ]

let lock_fns = [ "Mutex.lock" ]
let unlock_fns = [ "Mutex.unlock" ]
let protect_fns = [ "Mutex.protect" ]

(* calls that park the calling worker: taking a contended mutex, waiting a
   condition, or any OS-blocking Unix/Thread primitive *)
let blocking_fns =
  [ "Mutex.lock"; "Condition.wait"; "Locked.await";
    "Thread.delay"; "Thread.join"; "Unix.sleep"; "Unix.sleepf";
    "Unix.select"; "Unix.wait"; "Unix.waitpid"; "Unix.system";
    "Unix.read"; "Unix.write"; "Unix.accept"; "Unix.connect";
    "Unix.recv"; "Unix.send"; "Stdlib.input_line"; "Stdlib.really_input";
    "Stdlib.read_line" ]

(* registry modules: mutable state reached through them is the sanctioned
   synchronized-and-commutative kind *)
let registry_path_prefixes = [ "Obs." ]

(* --- per-unit scan state ---------------------------------------------------------- *)

type global = {
  g_key : string;           (* qualified "Mod.name" *)
  g_kind : string;          (* e.g. "Hashtbl.t" *)
  g_site : string;
}

type raw_finding = {
  rf_rule : string;
  rf_sites : string list;   (* primary first *)
  rf_message : string;
}

type unit_info = {
  u_modname : string;       (* normalized *)
  u_source : string;        (* as recorded in the cmt, e.g. "lib/x/y.ml" *)
  u_imports : string list;  (* normalized unit names *)
  mutable u_entry : bool;
  u_sanctioned : bool;
  mutable u_globals : global list;
  mutable u_raw : raw_finding list;
}

type scan_ctx = {
  unit_ : unit_info;
  toplevel : (string, Typedtree.expression) Hashtbl.t;
      (* toplevel value name -> bound expression *)
  top_order : string list ref;  (* declaration order, for determinism *)
  blocking : (string, (string * string) list ref) Hashtbl.t;
      (* toplevel fn -> direct blocking calls (name, site) *)
  calls : (string, (string * string) list ref) Hashtbl.t;
      (* toplevel fn -> same-unit toplevel references (name, site) *)
  forks : (string * string * Typedtree.expression) list ref;
      (* fork fn name, fork site, thunk expression *)
}

open Typedtree

(* the identifier a [let] pattern binds — a type-constrained binding
   ([let x : t = e]) elaborates to [Tpat_alias], not [Tpat_var] *)
let pat_ident (p : pattern) =
  match p.pat_desc with
  | Tpat_var (id, _) -> Some id
  | Tpat_alias (_, id, _) -> Some id
  | _ -> None

let qualify ctx (p : Path.t) =
  match p with
  | Path.Pident i ->
    let n = Ident.name i in
    if Hashtbl.mem ctx.toplevel n then ctx.unit_.u_modname ^ "." ^ n else n
  | _ -> norm_name (Path.name p)

let callee_name ctx (f : expression) =
  match f.exp_desc with
  | Texp_ident (p, _, _) -> Some (qualify ctx p)
  | _ -> None

let first_nolabel_arg args =
  List.find_map
    (function Asttypes.Nolabel, Some a -> Some a | _ -> None)
    args

(* --- main per-unit walk ------------------------------------------------------------ *)

(* Walk one toplevel binding's expression, recording its fork sites,
   blocking calls and same-unit call edges. *)
let walk_toplevel ctx ~fn_name (root : expression) =
  let src = ctx.unit_.u_source in
  let edges tbl =
    match Hashtbl.find_opt tbl fn_name with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.replace tbl fn_name r;
      r
  in
  let blocking = edges ctx.blocking and calls = edges ctx.calls in
  let it =
    let open Tast_iterator in
    let expr sub (e : expression) =
      (match e.exp_desc with
       | Texp_ident (Path.Pident i, _, _)
         when Hashtbl.mem ctx.toplevel (Ident.name i) ->
         calls := (Ident.name i, loc_site e.exp_loc src) :: !calls
       | Texp_apply (f, args) -> (
         match callee_name ctx f with
         | Some name ->
           let is set = List.exists (dotted_suffix name) set in
           if is blocking_fns then
             blocking := (name, loc_site e.exp_loc src) :: !blocking;
           if is fork_fns then (
             match first_nolabel_arg args with
             | Some thunk ->
               ctx.forks :=
                 (name, loc_site e.exp_loc src, thunk) :: !(ctx.forks)
             | None -> ())
         | None -> ())
       | _ -> ());
      default_iterator.expr sub e
    in
    { default_iterator with expr }
  in
  it.expr it root

(* --- capture / blocking analysis of forked thunks ---------------------------------- *)

(* Free-variable walk of a thunk: every ident bound inside the thunk
   (params, lets, match cases) is recorded before its scope is visited, so
   an unbound occurrence is a capture from an enclosing scope (or a
   module-level value). *)
let analyze_thunk ctx ~fork_name ~fork_site (thunk : expression) =
  let src = ctx.unit_.u_source in
  let bound = Hashtbl.create 32 in
  let ls = ref [] in
  let found = ref [] in
  let add_finding rf =
    if
      not
        (List.exists
           (fun f -> f.rf_rule = rf.rf_rule && f.rf_sites = rf.rf_sites)
           !found)
    then found := rf :: !found
  in
  let exempt_registry name =
    List.exists (fun p -> starts_with ~prefix:p name) registry_path_prefixes
  in
  let rec base_ident (e : expression) =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> Some p
    | Texp_field (b, _, _) -> base_ident b
    | Texp_open (_, b) -> base_ident b
    | _ -> None
  in
  let is_bound = function
    | Path.Pident i -> Hashtbl.mem bound (Ident.unique_name i)
    | _ -> false
  in
  let it =
    let open Tast_iterator in
    let pat : type k. iterator -> k general_pattern -> unit =
     fun sub p ->
      (match p.pat_desc with
       | Tpat_var (id, _) -> Hashtbl.replace bound (Ident.unique_name id) ()
       | Tpat_alias (_, id, _) ->
         Hashtbl.replace bound (Ident.unique_name id) ()
       | _ -> ());
      default_iterator.pat sub p
    in
    let expr sub (e : expression) =
      match e.exp_desc with
      | Texp_ident (p, _, _) ->
        if not (is_bound p) then begin
          let name = qualify ctx p in
          let ty = head_tycon e.exp_type in
          if
            tycon_in ty capture_mutable_tycons
            && (not (exempt_registry name))
            && !ls = []
          then
            add_finding
              { rf_rule = "typed/capture-escape";
                rf_sites = [ loc_site e.exp_loc src; fork_site ];
                rf_message =
                  Printf.sprintf
                    "thunk forked via %s at %s captures `%s` : %s from an \
                     enclosing scope; a forked task may only reach mutable \
                     state through Atomic, a Mutex-guarded section, \
                     Domain.DLS or the obs registries"
                    fork_name fork_site name
                    (match ty with Some t -> t | None -> "?") }
        end
      | Texp_setfield (b, _, lbl, v) ->
        (match base_ident b with
         | Some p when (not (is_bound p)) && !ls = [] ->
           let name = qualify ctx p in
           if not (exempt_registry name) then
             add_finding
               { rf_rule = "typed/capture-escape";
                 rf_sites = [ loc_site e.exp_loc src; fork_site ];
                 rf_message =
                   Printf.sprintf
                     "thunk forked via %s at %s writes mutable field `%s` \
                      of captured `%s`; racing writes from tasks need an \
                      Atomic or a lock-guarded accessor"
                     fork_name fork_site lbl.Types.lbl_name name }
         | _ -> ());
        sub.expr sub b;
        sub.expr sub v
      | Texp_apply (f, args) -> (
        match callee_name ctx f with
        | Some name ->
          let is set = List.exists (dotted_suffix name) set in
          if is blocking_fns then
            add_finding
              { rf_rule = "typed/blocking-in-task";
                rf_sites = [ loc_site e.exp_loc src; fork_site ];
                rf_message =
                  Printf.sprintf
                    "thunk forked via %s at %s calls blocking `%s`: the \
                     no-help scheduler parks the whole worker, stalling \
                     the pool"
                    fork_name fork_site name };
          if is protect_fns then (
            match args with
            | (_, Some m) :: rest -> (
              sub.expr sub f;
              sub.expr sub m;
              match first_nolabel_arg rest with
              | Some { exp_desc = Texp_function { cases; _ }; _ } ->
                let s = !ls in
                ls := "m" :: !ls;
                List.iter (sub.case sub) cases;
                ls := s
              | Some other -> sub.expr sub other
              | None -> ())
            | _ -> default_iterator.expr sub e)
          else begin
            (if is lock_fns then ls := "m" :: !ls
             else if is unlock_fns then
               ls := (match !ls with _ :: t -> t | [] -> []));
            default_iterator.expr sub e
          end
        | None -> default_iterator.expr sub e)
      | _ -> default_iterator.expr sub e
    in
    { default_iterator with expr; pat }
  in
  (* resolve an ident thunk to its same-unit definition (one hop) *)
  let target =
    match thunk.exp_desc with
    | Texp_ident (Path.Pident i, _, _) -> (
      match Hashtbl.find_opt ctx.toplevel (Ident.name i) with
      | Some def -> Some def
      | None -> None)
    | Texp_function _ -> Some thunk
    | _ -> None
  in
  (match target with Some e -> it.expr it e | None -> ());
  (* blocking calls reachable through same-unit helpers the thunk names *)
  let summaries = Hashtbl.create 16 in
  let rec summary seen fn =
    if List.mem fn seen then None
    else
      match Hashtbl.find_opt summaries fn with
      | Some s -> s
      | None ->
        let s =
          match Hashtbl.find_opt ctx.blocking fn with
          | Some { contents = (bname, bsite) :: _ } ->
            Some [ (bname, bsite) ]
          | _ -> (
            match Hashtbl.find_opt ctx.calls fn with
            | Some { contents = cs } ->
              List.find_map
                (fun (callee, csite) ->
                  match summary (fn :: seen) callee with
                  | Some chain ->
                    Some (("call " ^ callee, csite) :: chain)
                  | None -> None)
                (List.sort_uniq compare cs)
            | None -> None)
        in
        Hashtbl.replace summaries fn s;
        s
  in
  (match target with
   | Some e ->
     let callees = ref [] in
     let it2 =
       let open Tast_iterator in
       let expr sub (x : expression) =
         (match x.exp_desc with
          | Texp_ident (Path.Pident i, _, _)
            when Hashtbl.mem ctx.toplevel (Ident.name i) ->
            callees := (Ident.name i, loc_site x.exp_loc src) :: !callees
          | _ -> ());
         default_iterator.expr sub x
       in
       { default_iterator with expr }
     in
     it2.expr it2 e;
     List.iter
       (fun (callee, csite) ->
         match summary [] callee with
         | Some chain ->
           let steps =
             List.map (fun (n, s) -> Printf.sprintf "%s at %s" n s) chain
           in
           add_finding
             { rf_rule = "typed/blocking-in-task";
               rf_sites = [ csite; fork_site ];
               rf_message =
                 Printf.sprintf
                   "thunk forked via %s at %s reaches a blocking call \
                    through %s: %s"
                   fork_name fork_site callee
                   (String.concat " -> " steps) }
         | None -> ())
       (List.sort_uniq compare !callees)
   | None -> ());
  List.rev !found

(* --- name rules -------------------------------------------------------------------- *)

let name_rule_message = function
  | "nondet/hashtbl-order" ->
    "unordered Hashtbl iteration: hash order is an implementation detail \
     (and changes under OCAMLRUNPARAM=R); sort the result or waive with \
     the downstream normalization argument"
  | "nondet/wall-clock" ->
    "wall-clock read: results must not depend on when they were computed; \
     timing that feeds only measurement output must be waived as such"
  | "nondet/ambient-random" ->
    "ambient Random generator: global RNG state makes results depend on \
     call interleaving; use an explicitly seeded Random.State"
  | "nondet/domain-id" ->
    "Domain.self in code: domain identity varies with scheduling and must \
     never reach a result path"
  | _ ->
    "physical-equality / address-dependent key: object identity is not a \
     stable program input (moving GC, re-parsing) and poisons memo tables"

let hashtbl_order_fns =
  [ "Hashtbl.iter"; "Hashtbl.fold"; "Hashtbl.to_seq"; "Hashtbl.to_seq_keys";
    "Hashtbl.to_seq_values" ]

let wall_clock_fns = [ "Unix.gettimeofday"; "Unix.time"; "Sys.time" ]

(* a path with its unit-local module aliases ([module H = Hashtbl],
   [let module H = Hashtbl in]) substituted *)
let rec resolve aliases (p : Path.t) =
  match p with
  | Path.Pident id -> (
    match Hashtbl.find_opt aliases (Ident.unique_name id) with
    | Some q -> q
    | None -> p)
  | Path.Pdot (q, s) -> Path.Pdot (resolve aliases q, s)
  | _ -> p

let rec rooted_at_unit = function
  | Path.Pident id -> Ident.persistent id
  | Path.Pdot (p, _) | Path.Papply (p, _) -> rooted_at_unit p
  | _ -> false

(* The dotted name of a value path rooted at a compilation unit, with
   [Stdlib.] dropped ("Hashtbl.fold"); [None] for a path rooted at a local
   binding, however it is spelled. *)
let unit_name aliases p =
  let p = resolve aliases p in
  if not (rooted_at_unit p) then None
  else
    let n = norm_name (Path.name p) in
    if starts_with ~prefix:"Stdlib." n then
      Some (String.sub n 7 (String.length n - 7))
    else Some n

(* Run the five name rules over a whole implementation; each finding sits
   on the line of the offending identifier. *)
let name_findings src (str : structure) =
  let aliases = Hashtbl.create 8 in
  let found = ref [] in
  let fire rule (loc : Location.t) =
    found :=
      { rf_rule = rule;
        rf_sites = [ loc_site loc src ];
        rf_message = name_rule_message rule }
      :: !found
  in
  let name (e : expression) =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> unit_name aliases p
    | _ -> None
  in
  let alias id (me : module_expr) =
    let rec target (me : module_expr) =
      match me.mod_desc with
      | Tmod_ident (p, _) -> Some p
      | Tmod_constraint (me, _, _, _) -> target me
      | _ -> None
    in
    match (id, target me) with
    | Some id, Some p ->
      Hashtbl.replace aliases (Ident.unique_name id) (resolve aliases p)
    | _ -> ()
  in
  let sorts (e : expression) =
    let sort_fn (f : expression) =
      match f.exp_desc with
      | Texp_ident (p, _, _) -> (
        match resolve aliases p with
        | Path.Pdot (_, ("sort" | "stable_sort" | "sort_uniq")) -> true
        | _ -> false)
      | _ -> false
    in
    match e.exp_desc with
    | Texp_apply (f, _) -> sort_fn f
    | _ -> sort_fn e
  in
  (* callee locations of applications fed straight into a sort *)
  let sorted = Hashtbl.create 8 in
  let in_hashtbl_call = ref 0 in
  let it =
    let open Tast_iterator in
    let module_binding sub (mb : module_binding) =
      alias mb.mb_id mb.mb_expr;
      default_iterator.module_binding sub mb
    in
    let expr sub (e : expression) =
      match e.exp_desc with
      | Texp_ident _ -> (
        match name e with
        | Some n when List.mem n hashtbl_order_fns ->
          if not (Hashtbl.mem sorted e.exp_loc) then
            fire "nondet/hashtbl-order" e.exp_loc
        | Some n when List.mem n wall_clock_fns ->
          fire "nondet/wall-clock" e.exp_loc
        | Some n
          when starts_with ~prefix:"Random." n
               && not (starts_with ~prefix:"Random.State." n) ->
          fire "nondet/ambient-random" e.exp_loc
        | Some "Domain.self" -> fire "nondet/domain-id" e.exp_loc
        | Some ("Obj.repr" | "Obj.magic") ->
          fire "mm/physical-eq-key" e.exp_loc
        | Some "==" when !in_hashtbl_call > 0 ->
          fire "mm/physical-eq-key" e.exp_loc
        | _ -> ())
      | Texp_letmodule (id, _, _, me, _) ->
        alias id me;
        default_iterator.expr sub e
      | Texp_apply (f, args) ->
        (* the type checker turns [x |> List.sort cmp] and
           [List.sort cmp @@ x] into [(List.sort cmp) x], hence [sorts]
           accepting a partial application as the callee *)
        if sorts f then
          List.iter
            (function
              | _, Some { exp_desc = Texp_apply (g, _); _ } ->
                Hashtbl.replace sorted g.exp_loc ()
              | _ -> ())
            args;
        let hashtbl_call =
          match name f with
          | Some n -> starts_with ~prefix:"Hashtbl." n
          | None -> false
        in
        if hashtbl_call then incr in_hashtbl_call;
        default_iterator.expr sub e;
        if hashtbl_call then decr in_hashtbl_call
      | _ -> default_iterator.expr sub e
    in
    { default_iterator with expr; module_binding }
  in
  it.structure it str;
  List.rev !found

(* --- toplevel mutable-state classification ----------------------------------------- *)

let classify_global ctx (vb : value_binding) =
  match pat_ident vb.vb_pat with
  | Some id -> (
    let name = Ident.name id in
    let key = ctx.unit_.u_modname ^ "." ^ name in
    let ty = head_tycon vb.vb_expr.exp_type in
    if tycon_in ty sync_tycons then None
    else if tycon_in ty global_mutable_tycons then
      Some
        { g_key = key;
          g_kind = (match ty with Some t -> t | None -> "?");
          g_site = loc_site vb.vb_pat.pat_loc ctx.unit_.u_source }
    else
      match vb.vb_expr.exp_desc with
      | Texp_record { fields; _ }
        when Array.exists
               (fun (l, _) -> l.Types.lbl_mut = Asttypes.Mutable)
               fields ->
        Some
          { g_key = key;
            g_kind = "record with mutable fields";
            g_site = loc_site vb.vb_pat.pat_loc ctx.unit_.u_source }
      | _ -> None)
  | _ -> None

(* --- unit scan --------------------------------------------------------------------- *)

let scan_unit cfg (cmt : Cmt_format.cmt_infos) =
  match cmt.cmt_annots with
  | Cmt_format.Implementation str ->
    let source =
      match cmt.cmt_sourcefile with
      | Some s -> s
      | None -> cmt.cmt_modname ^ ".ml"
    in
    let modname = norm_name cmt.cmt_modname in
    let sanctioned =
      List.exists
        (fun frag -> contains source frag)
        cfg.sanctioned_path_fragments
    in
    let unit_ =
      { u_modname = modname;
        u_source = source;
        u_imports =
          List.sort_uniq compare
            (List.map (fun (n, _) -> norm_name n) cmt.cmt_imports);
        u_entry =
          List.exists
            (fun p -> starts_with ~prefix:p source)
            cfg.entry_path_prefixes;
        u_sanctioned = sanctioned;
        u_globals = [];
        u_raw = [] }
    in
    let ctx =
      { unit_;
        toplevel = Hashtbl.create 64;
        top_order = ref [];
        blocking = Hashtbl.create 16;
        calls = Hashtbl.create 16;
        forks = ref [] }
    in
    (* pass 0: toplevel bindings (so [qualify] resolves unit-local names) *)
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              match pat_ident vb.vb_pat with
              | Some id ->
                let n = Ident.name id in
                if not (Hashtbl.mem ctx.toplevel n) then
                  ctx.top_order := n :: !(ctx.top_order);
                Hashtbl.replace ctx.toplevel n vb.vb_expr
              | None -> ())
            vbs
        | _ -> ())
      str.str_items;
    (* entry points by qualified value name *)
    let entry_by_name =
      List.exists
        (fun n ->
          List.exists
            (fun ep -> dotted_suffix (modname ^ "." ^ n) ep)
            cfg.entry_points)
        !(ctx.top_order)
    in
    unit_.u_entry <- unit_.u_entry || entry_by_name;
    (* pass 1: walk every toplevel binding *)
    let anon = ref 0 in
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              let fn_name =
                match pat_ident vb.vb_pat with
                | Some id -> Ident.name id
                | None ->
                  incr anon;
                  Printf.sprintf "<init:%d>" !anon
              in
              (match classify_global ctx vb with
               | Some g -> unit_.u_globals <- g :: unit_.u_globals
               | None -> ());
              walk_toplevel ctx ~fn_name vb.vb_expr)
            vbs
        | Tstr_eval (e, _) ->
          incr anon;
          walk_toplevel ctx
            ~fn_name:(Printf.sprintf "<init:%d>" !anon)
            e
        | _ -> ())
      str.str_items;
    (* pass 2: capture/escape + blocking analysis of every fork site *)
    List.iter
      (fun (fork_name, fork_site, thunk) ->
        let fs = analyze_thunk ctx ~fork_name ~fork_site thunk in
        unit_.u_raw <- fs @ unit_.u_raw)
      (List.rev !(ctx.forks));
    unit_.u_raw <- name_findings source str @ unit_.u_raw;
    Some unit_
  | _ -> None

(* --- cross-unit analysis ----------------------------------------------------------- *)

let module_escape_findings units =
  let by_name = Hashtbl.create 64 in
  List.iter (fun u -> Hashtbl.replace by_name u.u_modname u) units;
  (* unit-level reachability from the entry units over cmt imports *)
  let reachable = Hashtbl.create 64 in
  let rec visit via name =
    match Hashtbl.find_opt by_name name with
    | Some u ->
      if not (Hashtbl.mem reachable name) then begin
        Hashtbl.replace reachable name via;
        List.iter (visit via) u.u_imports
      end
    | None -> ()
  in
  List.iter (fun u -> if u.u_entry then visit u.u_modname u.u_modname) units;
  List.concat_map
    (fun u ->
      if u.u_sanctioned then []
      else
        match Hashtbl.find_opt reachable u.u_modname with
        | None -> []
        | Some via ->
          List.map
            (fun g ->
              { rf_rule = "typed/module-escape";
                rf_sites = [ g.g_site ];
                rf_message =
                  Printf.sprintf
                    "module-level mutable state `%s` (%s) is reachable from \
                     flow entry point%s without a synchronization wrapper: \
                     route it through Atomic, Obs.Locked, Domain.DLS, or \
                     the obs registries"
                    g.g_key g.g_kind
                    (if via = u.u_modname then "" else " via " ^ via) })
            (List.sort compare u.u_globals))
    (List.sort (fun a b -> compare a.u_modname b.u_modname) units)

(* --- waiver application ------------------------------------------------------------ *)

type result = {
  findings : finding list;
  files_scanned : int;
  rules_fired : (string * int) list;
  waivers_honored : int;
}

let finding_of_raw rf =
  { rule_id = rf.rf_rule;
    sites = rf.rf_sites;
    message = rf.rf_message }

let meta rule site message =
  { rule_id = rule; sites = [ site ]; message }

(* in-source waivers of a source file, and the unjustified ones *)
let source_waivers cfg =
  let cache = Hashtbl.create 16 in
  fun path ->
    match Hashtbl.find_opt cache path with
    | Some ws -> ws
    | None ->
      let full = Filename.concat cfg.source_root path in
      let ws =
        if Sys.file_exists full then (
          let ic = open_in_bin full in
          let content = really_input_string ic (in_channel_length ic) in
          close_in ic;
          Lint_common.line_waivers ~path content)
        else ([], [])
      in
      Hashtbl.replace cache path ws;
      ws

let site_file_line site =
  match String.rindex_opt site ':' with
  | Some i -> (
    let f = String.sub site 0 i in
    match
      int_of_string_opt
        (String.sub site (i + 1) (String.length site - i - 1))
    with
    | Some l -> Some (f, l)
    | None -> None)
  | None -> None

let scan_cmt_files ?(config = default_config) ?(waivers = "") ~sources paths =
  let cfg = config in
  let units =
    List.filter_map
      (fun path ->
        (* an unreadable .cmt is not skipped silently: its source is then
           claimed by no unit and reported as unscanned below *)
        match Cmt_format.read_cmt path with
        | cmt -> scan_unit cfg cmt
        | exception _ -> None)
      (List.sort compare paths)
  in
  (* dedupe by source (an exe and a lib can compile the same module) *)
  let units =
    let seen = Hashtbl.create 32 in
    List.filter
      (fun u ->
        if Hashtbl.mem seen u.u_source then false
        else begin
          Hashtbl.replace seen u.u_source ();
          true
        end)
      units
  in
  let raw =
    List.sort_uniq compare
      (List.concat_map (fun u -> u.u_raw) units @ module_escape_findings units)
  in
  let fired = Hashtbl.create 8 in
  List.iter
    (fun rf ->
      let c =
        match Hashtbl.find_opt fired rf.rf_rule with
        | Some c -> c
        | None -> 0
      in
      Hashtbl.replace fired rf.rf_rule (c + 1))
    raw;
  (* waiver application: a finding is suppressed when any of its sites is
     covered by a justified in-source waiver for the rule, or when a
     file-level waiver's path fragment matches a site's file *)
  let file_waivers, file_probs = Lint_common.parse_waivers waivers in
  let lookup path = fst (source_waivers cfg path) in
  let used_line = Hashtbl.create 16 and used_file = ref [] in
  let survives rf =
    (* every waiver covering any site counts as used (no short-circuit) *)
    let covering =
      List.concat_map
        (fun site ->
          match site_file_line site with
          | Some (f, l) ->
            List.filter_map
              (fun w ->
                if
                  w.Lint_common.lw_rule = rf.rf_rule
                  && List.mem l w.Lint_common.lw_covers
                then Some (f, w.Lint_common.lw_line)
                else None)
              (lookup f)
          | None -> [])
        rf.rf_sites
    in
    List.iter (fun k -> Hashtbl.replace used_line k ()) covering;
    covering = []
    &&
    match
      List.find_opt
        (fun w ->
          w.Lint_common.w_rule = rf.rf_rule
          && List.exists
               (fun site ->
                 match site_file_line site with
                 | Some (f, _) -> contains f w.Lint_common.w_path
                 | None -> false)
               rf.rf_sites)
        file_waivers
    with
    | Some w ->
      used_file := w :: !used_file;
      false
    | None -> true
  in
  let surviving = List.filter survives raw in
  let known rule = List.mem rule rule_ids in
  (* waiver hygiene: every waiver is justified, names a known rule, and
     still suppresses something *)
  let file_meta =
    file_probs
    @ List.filter_map
        (fun w ->
          let site = Printf.sprintf "LINT_WAIVERS(%s)" w.Lint_common.w_path in
          if not (known w.Lint_common.w_rule) then
            Some
              (meta "lint/waiver-unknown-rule" site
                 (Printf.sprintf "file waiver names unknown rule %S"
                    w.Lint_common.w_rule))
          else if List.memq w !used_file then None
          else
            Some
              (meta "lint/waiver-unused" site
                 (Printf.sprintf
                    "file waiver for %s on %S suppresses nothing — remove it"
                    w.Lint_common.w_rule w.Lint_common.w_path)))
        file_waivers
  in
  let source_meta =
    List.concat_map
      (fun u ->
        let ws, unjustified = source_waivers cfg u.u_source in
        unjustified
        @ List.filter_map
            (fun w ->
              let site =
                Printf.sprintf "%s:%d" u.u_source w.Lint_common.lw_line
              in
              if not (known w.Lint_common.lw_rule) then
                Some
                  (meta "lint/waiver-unknown-rule" site
                     (Printf.sprintf "waiver names unknown rule %S"
                        w.Lint_common.lw_rule))
              else if Hashtbl.mem used_line (u.u_source, w.Lint_common.lw_line)
              then None
              else
                Some
                  (meta "lint/waiver-unused" site
                     (Printf.sprintf
                        "waiver for %s suppresses nothing — remove it"
                        w.Lint_common.lw_rule)))
            ws)
      units
  in
  (* coverage: every source the caller named must have been analyzed *)
  let unscanned =
    List.filter_map
      (fun src ->
        if List.exists (fun u -> u.u_source = src) units then None
        else
          Some
            (meta "lint/unscanned-source" src
               "no readable .cmt implementation unit records this source: \
                its code was not linted (build with -bin-annot and run \
                from the build root)"))
      sources
  in
  let findings =
    List.sort_uniq compare
      (List.map finding_of_raw surviving
      @ file_meta @ source_meta @ unscanned)
  in
  { findings;
    files_scanned = List.length units;
    rules_fired =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) fired []);
    waivers_honored = List.length raw - List.length surviving }

(* --- metrics ----------------------------------------------------------------------- *)

let publish_stats r =
  let set name v =
    Obs.Metrics.set_gauge (Obs.Metrics.gauge name) (float_of_int v)
  in
  set "typedlint.files_scanned" r.files_scanned;
  set "typedlint.findings" (List.length r.findings);
  set "typedlint.waivers_honored" r.waivers_honored;
  set "typedlint.rules_fired"
    (List.fold_left (fun a (_, c) -> a + c) 0 r.rules_fired);
  List.iter
    (fun (rule, c) -> set ("typedlint.fired." ^ rule) c)
    r.rules_fired
