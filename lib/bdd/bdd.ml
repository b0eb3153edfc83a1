(* Hash-consed ROBDD package with one unique table per domain.

   Every domain that builds BDDs owns one table, made on its first BDD
   operation and reached through a [Domain.DLS] key.  A table holds a node
   store of fixed-size blocks (handles are integer indices; 0 and 1 are the
   terminals), an open-addressing unique table, and the ITE, exists and cons
   caches.  No other domain reads or writes it, so it needs no lock, fence or
   atomic.  The one invariant is that a scope is used only on the domain that
   created it; [owned] checks it on every operation.

   A [man] is a *scope*: a lightweight accounting handle onto its domain's
   table.  Each scope tracks the set of distinct nodes its operations consed,
   so [node_count] reports exactly what a fresh manager would have allocated
   for the same operation sequence — node budgets (eqcheck, dontcare)
   therefore trip identically whether the table is cold or warm.  To keep
   that guarantee, ITE/exists cache entries are stamped with the owning scope
   and ignored by other scopes: sharing happens in the unique table
   (structure), not in the computed caches (work). *)

type t = int

let bfalse : t = 0
let btrue : t = 1

let terminal_var = max_int

(* --- node store: fixed-size blocks ------------------------------------------ *)

let block_bits = 16
let block_size = 1 lsl block_bits
let block_mask = block_size - 1
let max_blocks = 2048 (* 2048 * 65536 = 134M nodes per table *)

(* Node and slot storage lives in [Bigarray]s, i.e. outside the OCaml heap.
   A table only grows over its domain's lifetime (nodes are never freed),
   and hundreds of MB of live int arrays on the managed heap would be
   re-scanned by every major GC cycle; bigarray payloads are opaque to the
   GC.  Fields are interleaved per node — [var; low; high] at offsets
   3o..3o+2 — so one traversal step touches one cache line.  Every stored
   value (a variable index, a node id or the -1 fill) fits in 32 bits, which
   halves the footprint, and with it the transient peak while the unique
   table rehashes into twice its size. *)
type ba = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

let get (a : ba) i = Int32.to_int (Bigarray.Array1.unsafe_get a i)
let set (a : ba) i v = Bigarray.Array1.unsafe_set a i (Int32.of_int v)

let ba_make n fill : ba =
  let a = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout n in
  Bigarray.Array1.fill a (Int32.of_int fill);
  a

(* only slots below [next_id] are ever read, so blocks need no fill *)
let make_block () : ba =
  Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (block_size * 3)

(* --- tables ------------------------------------------------------------------- *)

type table = {
  mutable blocks : ba array;
  mutable next_id : int;
  (* the unique table: interleaved open-addressing slots, stride 4
     [v; low; high; id], all fields -1 filled; id >= 0 marks an occupied
     slot.  Keeping the key inline means a probe step touches one cache
     line and never dereferences the node store. *)
  mutable slots : ba;
  (* ITE cache, direct-mapped *)
  c_f : int array;
  c_g : int array;
  c_h : int array;
  c_r : int array;
  c_u : int array; (* owning scope uid of each entry; 0 = empty *)
  c_mask : int;
  (* direct-mapped front cache of the unique table, interleaved stride 4:
     [v; low; high; id].  The (v, low, high) -> id mapping is immutable
     (nodes are never freed or renumbered), so entries never need
     invalidation and no scope stamp is required.  Its point is locality:
     the slot array grows to hundreds of MB across a long run and every
     probe into it misses cache, while this stays cache-resident. *)
  c_cons : int array;
  c_cons_mask : int;
  exists_cache : (int, int) Hashtbl.t;
  mutable exists_vars : int list;
  mutable exists_owner : int;
  (* monotone op counters, read racily by [stats] *)
  mutable ite_hits : int;
  mutable ite_misses : int;
  mutable mk_calls : int;
  mutable unique_hits : int;
}

let cache_size = 1 lsl 16
let initial_slots = 1 lsl 12

(* process-wide monotone counts: commutative atomic counters, read only as
   totals *)
let g_tables = Atomic.make 0
let g_scopes = Atomic.make 0
(* scope uids; 0 is the "no owner" cache stamp *)
let g_uid = Atomic.make 1

(* Counters of tables whose domain has exited.  [Sched] spawns and joins a
   pool per [map], so a table leaves [live] when its domain exits instead of
   being retained for the process lifetime; its counts are folded in here
   so [stats] still sums over every domain's table. *)
type totals = {
  r_nodes : int;
  r_ite_hits : int;
  r_ite_misses : int;
  r_mk_calls : int;
  r_unique_hits : int;
}

(* The tables of running domains and the folded counts of exited ones.
   Taken once when a domain makes its table, once when it exits, and by
   [stats]. *)
type registry = {
  mutable live : table list;
  mutable retired : totals;
}

let registry =
  Obs.Locked.create
    { live = [];
      retired =
        { r_nodes = 0; r_ite_hits = 0; r_ite_misses = 0; r_mk_calls = 0;
          r_unique_hits = 0 } }

(* runs on the exiting domain itself, so reading its table is race-free *)
let retire t =
  let nodes = t.next_id - 2
  and ite_hits = t.ite_hits
  and ite_misses = t.ite_misses
  and mk_calls = t.mk_calls
  and unique_hits = t.unique_hits in
  Obs.Locked.use registry (fun r ->
      r.live <- List.filter (fun u -> u != t) r.live;
      let o = r.retired in
      r.retired <-
        { r_nodes = o.r_nodes + nodes;
          r_ite_hits = o.r_ite_hits + ite_hits;
          r_ite_misses = o.r_ite_misses + ite_misses;
          r_mk_calls = o.r_mk_calls + mk_calls;
          r_unique_hits = o.r_unique_hits + unique_hits })

let make_table () =
  let t =
    { (* terminals live in block 0 *)
      blocks = [| make_block () |];
      next_id = 2;
      slots = ba_make (initial_slots * 4) (-1);
      c_f = Array.make cache_size 0;
      c_g = Array.make cache_size 0;
      c_h = Array.make cache_size 0;
      c_r = Array.make cache_size 0;
      c_u = Array.make cache_size 0;
      c_mask = cache_size - 1;
      c_cons = Array.make (cache_size * 4) (-1);
      c_cons_mask = cache_size - 1;
      exists_cache = Hashtbl.create 256;
      exists_vars = [];
      exists_owner = 0;
      ite_hits = 0;
      ite_misses = 0;
      mk_calls = 0;
      unique_hits = 0 }
  in
  Atomic.incr g_tables;
  Obs.Locked.use registry (fun r -> r.live <- t :: r.live);
  Domain.at_exit (fun () -> retire t);
  t

let table_key = Domain.DLS.new_key make_table

(* --- scopes ------------------------------------------------------------------- *)

type man = {
  table : table;
  uid : int; (* stamps the ITE/exists cache entries this scope writes *)
  (* open-addressing set of node ids consed through this scope; slot 0 is
     empty (valid ids are >= 2) *)
  mutable seen : int array;
  mutable seen_mask : int;
  mutable seen_n : int;
  (* direct-mapped positive filter over [seen]: filter.(h id) = id implies
     id is in [seen].  The set itself grows to megabytes on big builds, so
     its probes miss cache; re-consing the same nodes has strong temporal
     locality, and this L1-resident front absorbs most of those probes. *)
  filter : int array;
}

let filter_bits = 9
let filter_mask = (1 lsl filter_bits) - 1

let create () =
  Atomic.incr g_scopes;
  let cap = 256 in
  { table = Domain.DLS.get table_key;
    uid = Atomic.fetch_and_add g_uid 1;
    seen = Array.make cap 0;
    seen_mask = cap - 1;
    seen_n = 0;
    filter = Array.make (filter_mask + 1) 0 }

(* The owner-domain invariant: a scope's table is its creating domain's
   table, so any other domain using it would race that domain's writes. *)
let owned man =
  let t = man.table in
  if t != Domain.DLS.get table_key then
    invalid_arg "Bdd: scope used on a domain other than the one that opened it";
  t

(* --- scope accounting --------------------------------------------------------- *)

let seen_grow man =
  let old = man.seen in
  let cap = 2 * Array.length old in
  let fresh = Array.make cap 0 in
  let mask = cap - 1 in
  Array.iter
    (fun id ->
      if id <> 0 then begin
        let s = ref ((id * 0x9E3779B1) land mask) in
        while fresh.(!s) <> 0 do
          s := (!s + 1) land mask
        done;
        fresh.(!s) <- id
      end)
    old;
  man.seen <- fresh;
  man.seen_mask <- mask

(* top-level tail loop so the hot path allocates nothing: returns the free
   slot for [id], or -1 when [id] is already present *)
let rec seen_probe seen mask id s =
  let cur = Array.unsafe_get seen s in
  if cur = id then -1
  else if cur = 0 then s
  else seen_probe seen mask id ((s + 1) land mask)

(* charges [id] to the scope unless it already was; the filter absorbs most
   repeats before the set is probed *)
let scope_add man id =
  let fs = (id * 0x9E3779B1) land filter_mask in
  if Array.unsafe_get man.filter fs <> id then begin
    Array.unsafe_set man.filter fs id;
    let mask = man.seen_mask in
    let s = seen_probe man.seen mask id ((id * 0x9E3779B1) land mask) in
    if s >= 0 then begin
      Array.unsafe_set man.seen s id;
      man.seen_n <- man.seen_n + 1;
      if 3 * man.seen_n >= 2 * (mask + 1) then seen_grow man
    end
  end

let node_count man = 2 + man.seen_n

(* --- node field access -------------------------------------------------------- *)

let read_field t f k =
  get t.blocks.(f lsr block_bits) (((f land block_mask) * 3) + k)

let var_of_id t f = read_field t f 0
let low_of_id t f = read_field t f 1
let high_of_id t f = read_field t f 2

let var_of man f = if f < 2 then terminal_var else var_of_id man.table f

(* --- hashing ------------------------------------------------------------------- *)

(* Fibonacci-style multiplicative mix of a packed triple; the three odd
   constants keep var/low/high from cancelling in the xor. *)
let hash3 v low high =
  let h = (v * 0x9E3779B1) lxor (low * 0x85EBCA77) lxor (high * 0xC2B2AE3D) in
  h lxor (h lsr 17)

(* --- unique table ------------------------------------------------------------- *)

let grow t =
  let old = t.slots in
  let oldn = Bigarray.Array1.dim old lsr 2 in
  let cap = 2 * oldn in
  let fresh = ba_make (cap * 4) (-1) in
  let mask = cap - 1 in
  for i = 0 to oldn - 1 do
    let idx = i * 4 in
    let id = get old (idx + 3) in
    if id >= 0 then begin
      let v = get old idx and l = get old (idx + 1) and h = get old (idx + 2) in
      let s = ref (hash3 v l h land mask) in
      while get fresh ((!s * 4) + 3) >= 0 do
        s := (!s + 1) land mask
      done;
      let fi = !s * 4 in
      set fresh fi v;
      set fresh (fi + 1) l;
      set fresh (fi + 2) h;
      set fresh (fi + 3) id
    end
  done;
  t.slots <- fresh

let alloc_node t v low high =
  let id = t.next_id in
  let bi = id lsr block_bits in
  if bi = Array.length t.blocks then begin
    if bi >= max_blocks then failwith "Bdd: node capacity exceeded";
    t.blocks <- Array.append t.blocks [| make_block () |]
  end;
  t.next_id <- id + 1;
  let b = t.blocks.(bi) and o = (id land block_mask) * 3 in
  set b o v;
  set b (o + 1) low;
  set b (o + 2) high;
  id

(* top-level tail loop so the hot path allocates nothing *)
let rec find_or_insert t slots mask v low high s =
  let idx = s * 4 in
  let id = get slots (idx + 3) in
  if id < 0 then begin
    let id = alloc_node t v low high in
    set slots idx v;
    set slots (idx + 1) low;
    set slots (idx + 2) high;
    set slots (idx + 3) id;
    id
  end
  else if
    get slots idx = v
    && get slots (idx + 1) = low
    && get slots (idx + 2) = high
  then begin
    t.unique_hits <- t.unique_hits + 1;
    id
  end
  else find_or_insert t slots mask v low high ((s + 1) land mask)

let cons man t v low high =
  t.mk_calls <- t.mk_calls + 1;
  let h3 = hash3 v low high in
  let ci = (h3 land t.c_cons_mask) * 4 in
  let cc = t.c_cons in
  if
    Array.unsafe_get cc ci = v
    && Array.unsafe_get cc (ci + 1) = low
    && Array.unsafe_get cc (ci + 2) = high
  then begin
    let id = Array.unsafe_get cc (ci + 3) in
    t.unique_hits <- t.unique_hits + 1;
    scope_add man id;
    id
  end
  else begin
    (* grow at 2/3 load so probe chains stay short *)
    if 3 * t.next_id >= 2 * (Bigarray.Array1.dim t.slots lsr 2) then grow t;
    let slots = t.slots in
    let mask = (Bigarray.Array1.dim slots lsr 2) - 1 in
    let id = find_or_insert t slots mask v low high (h3 land mask) in
    Array.unsafe_set cc ci v;
    Array.unsafe_set cc (ci + 1) low;
    Array.unsafe_set cc (ci + 2) high;
    Array.unsafe_set cc (ci + 3) id;
    scope_add man id;
    id
  end

let mk_c man t v low high = if low = high then low else cons man t v low high

let mk man v low high = mk_c man (owned man) v low high

let var man i =
  assert (i >= 0 && i <= 0x3fffffff);
  mk man i bfalse btrue

let is_true f = f = btrue
let is_false f = f = bfalse
let equal (a : t) (b : t) = a = b

(* --- ITE with per-domain, scope-stamped memoisation --------------------------- *)

(* Cache entries are only valid for the scope (uid) that wrote them: a hit
   from another scope would skip consing nodes this scope has not charged
   yet, making [node_count] — and therefore every consumer's node budget —
   depend on what ran before.  Structure is still shared through the unique
   table; only the memoised *work* is per-scope. *)
let rec ite_rec man t f g h =
  if f = btrue then g
  else if f = bfalse then h
  else if g = h then g
  else if g = btrue && h = bfalse then f
  else begin
    let slot = hash3 f g h land t.c_mask in
    if
      t.c_u.(slot) = man.uid
      && t.c_f.(slot) = f
      && t.c_g.(slot) = g
      && t.c_h.(slot) = h
    then begin
      t.ite_hits <- t.ite_hits + 1;
      t.c_r.(slot)
    end
    else begin
      t.ite_misses <- t.ite_misses + 1;
      let vf = var_of_id t f in
      let vg = if g < 2 then terminal_var else var_of_id t g in
      let vh = if h < 2 then terminal_var else var_of_id t h in
      let v = min vf (min vg vh) in
      (* cofactors written out so the miss path allocates no closure *)
      let ft = if vf = v then high_of_id t f else f in
      let gt = if vg = v then high_of_id t g else g in
      let ht = if vh = v then high_of_id t h else h in
      let hi = ite_rec man t ft gt ht in
      let fe = if vf = v then low_of_id t f else f in
      let ge = if vg = v then low_of_id t g else g in
      let he = if vh = v then low_of_id t h else h in
      let lo = ite_rec man t fe ge he in
      let r = mk_c man t v lo hi in
      t.c_f.(slot) <- f;
      t.c_g.(slot) <- g;
      t.c_h.(slot) <- h;
      t.c_r.(slot) <- r;
      t.c_u.(slot) <- man.uid;
      r
    end
  end

let ite man f g h = ite_rec man (owned man) f g h

let bnot man f = ite man f bfalse btrue
let band man f g = ite man f g bfalse
let bor man f g = ite man f btrue g
let bxor man f g = ite man f (bnot man g) g
let bxnor man f g = ite man f g (bnot man g)

let cofactor man f i value =
  let t = owned man in
  let rec go f =
    let v = var_of man f in
    if v > i then f
    else if v = i then (if value then high_of_id t f else low_of_id t f)
    else begin
      let hi = go (high_of_id t f) in
      let lo = go (low_of_id t f) in
      mk_c man t v lo hi
    end
  in
  go f

(* A quantification: its variable set as a membership array and largest
   member, so the recursions test a variable in O(1) and return a node whose
   top variable lies below every member unchanged; [key] names it in the
   exists cache. *)
type qset = { key : int list; universal : bool; mem : bool array; top : int }

let qset ~universal vars =
  let vars = List.sort_uniq compare vars in
  let top = List.fold_left max (-1) vars in
  let mem = Array.make (top + 1) false in
  List.iter (fun v -> mem.(v) <- true) vars;
  { key = (if universal then -1 :: vars else vars); universal; mem; top }

(* Existential quantification over a variable set.  The table's cache is
   keyed on the node only, so it is reset whenever the variable set or the
   owning scope changes.  [and_exists] passes one [qset] to all its
   quantifications, so within a call the set test is a physical-equality
   hit. *)
let quantify_set man t s f =
  if
    t.exists_owner <> man.uid
    || not (t.exists_vars == s.key || t.exists_vars = s.key)
  then begin
    Hashtbl.reset t.exists_cache;
    t.exists_vars <- s.key;
    t.exists_owner <- man.uid
  end;
  let rec go f =
    if f < 2 then f
    else begin
      let v = var_of_id t f in
      if v > s.top then f
      else
        match Hashtbl.find_opt t.exists_cache f with
        | Some r -> r
        | None ->
          let lo = go (low_of_id t f) and hi = go (high_of_id t f) in
          let r =
            if Array.unsafe_get s.mem v then
              if s.universal then ite_rec man t lo hi bfalse
              else ite_rec man t lo btrue hi
            else mk_c man t v lo hi
          in
          Hashtbl.add t.exists_cache f r;
          r
    end
  in
  go f

let quantify man ~universal vars f =
  quantify_set man (owned man) (qset ~universal vars) f

let exists man vars f = quantify man ~universal:false vars f
let forall man vars f = quantify man ~universal:true vars f

(* Relational product exists vars (a AND b) computed in one recursion; cached
   in a local table per call. *)
let and_exists man vars a b =
  let s = qset ~universal:false vars in
  let t = owned man in
  let cache = Hashtbl.create 1024 in
  let rec go a b =
    if a = bfalse || b = bfalse then bfalse
    else if a = btrue && b = btrue then btrue
    else if a = btrue then quantify_set man t s b
    else if b = btrue then quantify_set man t s a
    else begin
      let key = if a <= b then (a, b) else (b, a) in
      match Hashtbl.find_opt cache key with
      | Some r -> r
      | None ->
        let va = var_of man a and vb = var_of man b in
        let v = min va vb in
        let cof x vx side =
          if vx = v then
            if side then high_of_id t x else low_of_id t x
          else x
        in
        let lo = go (cof a va false) (cof b vb false) in
        let r =
          if v <= s.top && s.mem.(v) then
            if lo = btrue then btrue
            else ite_rec man t lo btrue (go (cof a va true) (cof b vb true))
          else begin
            let hi = go (cof a va true) (cof b vb true) in
            mk_c man t v lo hi
          end
        in
        Hashtbl.add cache key r;
        r
    end
  in
  go a b

let compose man f i g =
  (* Shannon: f[g/i] = ite(g, f_i, f_i') *)
  let hi = cofactor man f i true and lo = cofactor man f i false in
  ite man g hi lo

let rename man f mapping =
  let t = owned man in
  let cache = Hashtbl.create 256 in
  let rec go f =
    if f < 2 then f
    else
      match Hashtbl.find_opt cache f with
      | Some r -> r
      | None ->
        let v = var_of_id t f in
        let lo = go (low_of_id t f) and hi = go (high_of_id t f) in
        let v' = mapping v in
        (* Monotonicity on the support keeps levels ordered; build via ite on
           the renamed variable to stay safe even if levels collide. *)
        let r = ite_rec man t (mk_c man t v' bfalse btrue) hi lo in
        Hashtbl.add cache f r;
        r
  in
  go f

let support man f =
  let t = owned man in
  let seen = Hashtbl.create 64 in
  let vars = Hashtbl.create 16 in
  let rec go f =
    if f >= 2 && not (Hashtbl.mem seen f) then begin
      Hashtbl.add seen f ();
      Hashtbl.replace vars (var_of_id t f) ();
      go (low_of_id t f);
      go (high_of_id t f)
    end
  in
  go f;
  List.sort compare (Hashtbl.fold (fun v () acc -> v :: acc) vars [])

let size man f =
  let t = owned man in
  let seen = Hashtbl.create 64 in
  let count = ref 0 in
  let rec go f =
    if f >= 2 && not (Hashtbl.mem seen f) then begin
      Hashtbl.add seen f ();
      incr count;
      go (low_of_id t f);
      go (high_of_id t f)
    end
  in
  go f;
  !count

let sat_count man ~nvars f =
  let t = owned man in
  let cache = Hashtbl.create 256 in
  let rec go f =
    (* number of solutions over variables strictly below terminal, weighted
       at the end for skipped levels *)
    if f = bfalse then (0.0, nvars)
    else if f = btrue then (1.0, nvars)
    else
      match Hashtbl.find_opt cache f with
      | Some r -> r
      | None ->
        let v = var_of_id t f in
        let lo, lov = go (low_of_id t f) in
        let hi, hiv = go (high_of_id t f) in
        let lo = lo *. (2.0 ** float_of_int (lov - v - 1)) in
        let hi = hi *. (2.0 ** float_of_int (hiv - v - 1)) in
        let r = (lo +. hi, v) in
        Hashtbl.add cache f r;
        r
  in
  let total, top = go f in
  total *. (2.0 ** float_of_int top)

let any_sat man f =
  if f = bfalse then raise Not_found;
  let t = owned man in
  let rec go f acc =
    if f = btrue then List.rev acc
    else begin
      let v = var_of_id t f in
      if high_of_id t f <> bfalse then go (high_of_id t f) ((v, true) :: acc)
      else go (low_of_id t f) ((v, false) :: acc)
    end
  in
  go f []

let eval man f assign =
  let t = owned man in
  let rec go f =
    if f = btrue then true
    else if f = bfalse then false
    else if assign (var_of_id t f) then go (high_of_id t f)
    else go (low_of_id t f)
  in
  go f

let of_cover man fanins cover =
  let cube_bdd c =
    let acc = ref btrue in
    Logic.Cube.iteri
      (fun i l ->
        match l with
        | Logic.Cube.One -> acc := band man !acc fanins.(i)
        | Logic.Cube.Zero -> acc := band man !acc (bnot man fanins.(i))
        | Logic.Cube.Both -> ())
      c;
    !acc
  in
  List.fold_left
    (fun acc c -> bor man acc (cube_bdd c))
    bfalse cover.Logic.Cover.cubes

exception Cover_too_large

let to_cover ?(max_cubes = max_int) man ~nvars f =
  let t = owned man in
  let cubes = ref [] in
  let count = ref 0 in
  let rec go f prefix =
    if f = btrue then begin
      incr count;
      if !count > max_cubes then raise Cover_too_large;
      cubes := prefix :: !cubes
    end
    else if f <> bfalse then begin
      let v = var_of_id t f in
      assert (v < nvars);
      go (high_of_id t f) ((v, Logic.Cube.One) :: prefix);
      go (low_of_id t f) ((v, Logic.Cube.Zero) :: prefix)
    end
  in
  go f [];
  let cube_of assignments =
    let c = Logic.Cube.universe nvars in
    List.iter (fun (v, l) -> Logic.Cube.set c v l) assignments;
    c
  in
  Logic.Cover.make nvars (List.map cube_of !cubes)

(* --- statistics ---------------------------------------------------------------- *)

type stats = {
  table_nodes : int;
  table_capacity : int;
  table_load_pct : float;
  ite_hits : int;
  ite_misses : int;
  mk_calls : int;
  unique_hits : int;
  tables_created : int;
  scopes_opened : int;
  nodes_allocated_total : int;
}

let stats () =
  let tables, r = Obs.Locked.use registry (fun r -> (r.live, r.retired)) in
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 tables in
  let nodes = sum (fun t -> t.next_id - 2) in
  let capacity = sum (fun t -> Bigarray.Array1.dim t.slots lsr 2) in
  { table_nodes = nodes;
    table_capacity = capacity;
    table_load_pct =
      (if capacity = 0 then 0.0
       else 100.0 *. float_of_int nodes /. float_of_int capacity);
    ite_hits = r.r_ite_hits + sum (fun t -> t.ite_hits);
    ite_misses = r.r_ite_misses + sum (fun t -> t.ite_misses);
    mk_calls = r.r_mk_calls + sum (fun t -> t.mk_calls);
    unique_hits = r.r_unique_hits + sum (fun t -> t.unique_hits);
    tables_created = Atomic.get g_tables;
    scopes_opened = Atomic.get g_scopes;
    nodes_allocated_total = r.r_nodes + nodes }

let total_allocated () = (stats ()).nodes_allocated_total

let publish_stats () =
  let s = stats () in
  let g name v = Obs.Metrics.set_gauge (Obs.Metrics.gauge name) v in
  let f = float_of_int in
  g "bdd.table.nodes" (f s.table_nodes);
  g "bdd.table.capacity" (f s.table_capacity);
  g "bdd.table.load_pct" s.table_load_pct;
  g "bdd.ite.hits" (f s.ite_hits);
  g "bdd.ite.misses" (f s.ite_misses);
  g "bdd.ite.hit_pct"
    (let total = s.ite_hits + s.ite_misses in
     if total = 0 then 0.0 else 100.0 *. f s.ite_hits /. f total);
  g "bdd.mk.calls" (f s.mk_calls);
  g "bdd.mk.unique_hits" (f s.unique_hits);
  g "bdd.tables" (f s.tables_created);
  g "bdd.scopes" (f s.scopes_opened);
  g "bdd.nodes_allocated_total" (f s.nodes_allocated_total)
