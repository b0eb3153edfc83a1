(* Hash-consed ROBDD package with one unique table per domain.

   Every domain that builds BDDs owns one table, made on its first BDD
   operation and reached through a [Domain.DLS] key.  A table holds a node
   store of fixed-size blocks (handles are integer indices; 0 and 1 are the
   terminals), an open-addressing unique table, the ITE and cons caches, and
   the exact memos of the traversals.  No other domain reads or writes it,
   so it needs no lock, fence or atomic.  The one invariant is that a scope
   is used only on the domain that created it; [owned] checks it on every
   operation.

   A [man] is a *scope*: a lightweight accounting handle onto its domain's
   table.  Each scope tracks the set of distinct nodes its operations consed,
   so [node_count] reports exactly what a fresh manager would have allocated
   for the same operation sequence — node budgets (eqcheck, dontcare)
   therefore trip identically whether the table is cold or warm.  To keep
   that guarantee, ITE cache entries are stamped with the owning scope and
   ignored by other scopes, and the quantification memo is cleared when the
   scope changes: sharing happens in the unique table (structure), not in
   the computed caches and memos (work). *)

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

(* --- hashing ------------------------------------------------------------------- *)

(* Fibonacci-style multiplicative mix of a packed triple; the three odd
   constants keep var/low/high from cancelling in the xor. *)
let hash3 v low high =
  let h = (v * 0x9E3779B1) lxor (low * 0x85EBCA77) lxor (high * 0xC2B2AE3D) in
  h lxor (h lsr 17)

(* --- exact memos --------------------------------------------------------------- *)

(* An exact memo from a pair of ints to a non-negative int, for the
   traversals that must visit each shared node once ([and_exists],
   quantification, [rename], [support], [size], [sat_count]).  Open
   addressing at stride 4, [gen; a; b; r]: a cell is live only while its
   [gen] equals the memo's, so [memo_clear] is one increment and never
   touches the array.  The table owns one memo per use and every call
   reuses it; it doubles when a call fills it to 2/3, so it is sized by the
   largest traversal its domain has run.  Unlike the computed caches below,
   a memo never drops an entry: the traversal it serves is linear in the
   nodes it reaches. *)
type memo = {
  mutable cells : int array;
  mutable cells_mask : int;
  mutable gen : int;
  mutable live : int; (* cells stamped with [gen] *)
}

let memo_initial = 1 lsl 8

let memo_create () =
  (* fresh cells carry gen 0, below every generation the memo uses *)
  { cells = Array.make (memo_initial * 4) 0;
    cells_mask = memo_initial - 1;
    gen = 1;
    live = 0 }

let memo_clear m =
  m.gen <- m.gen + 1;
  m.live <- 0

(* top-level tail loops so lookups allocate nothing *)
let rec memo_find_at cells mask gen a b s =
  let i = s * 4 in
  if Array.unsafe_get cells i <> gen then -1
  else if
    Array.unsafe_get cells (i + 1) = a && Array.unsafe_get cells (i + 2) = b
  then Array.unsafe_get cells (i + 3)
  else memo_find_at cells mask gen a b ((s + 1) land mask)

(* the value stored for [(a, b)], or -1 *)
let memo_find m a b =
  memo_find_at m.cells m.cells_mask m.gen a b (hash3 a b 0 land m.cells_mask)

let rec memo_free cells mask gen s =
  if Array.unsafe_get cells (s * 4) <> gen then s
  else memo_free cells mask gen ((s + 1) land mask)

let memo_put cells mask gen a b r =
  let i = memo_free cells mask gen (hash3 a b 0 land mask) * 4 in
  Array.unsafe_set cells i gen;
  Array.unsafe_set cells (i + 1) a;
  Array.unsafe_set cells (i + 2) b;
  Array.unsafe_set cells (i + 3) r

let memo_grow m =
  let old = m.cells and gen = m.gen in
  let cap = 2 * (m.cells_mask + 1) in
  let cells = Array.make (cap * 4) 0 in
  for s = 0 to m.cells_mask do
    let i = s * 4 in
    if old.(i) = gen then
      memo_put cells (cap - 1) gen old.(i + 1) old.(i + 2) old.(i + 3)
  done;
  m.cells <- cells;
  m.cells_mask <- cap - 1

(* [(a, b)] must be absent *)
let memo_add m a b r =
  if 3 * (m.live + 1) > 2 * (m.cells_mask + 1) then memo_grow m;
  memo_put m.cells m.cells_mask m.gen a b r;
  m.live <- m.live + 1

(* --- tables ------------------------------------------------------------------- *)

type table = {
  mutable blocks : ba array;
  mutable next_id : int;
  (* the unique table: interleaved open-addressing slots, stride 4
     [v; low; high; id], all fields -1 filled; id >= 0 marks an occupied
     slot.  Keeping the key inline means a probe step touches one cache
     line and never dereferences the node store. *)
  mutable slots : ba;
  (* ITE cache, direct-mapped, interleaved stride 5 [uid; f; g; h; r]; uid
     is the owning scope of the entry, 0 = empty *)
  ite_cache : int array;
  (* direct-mapped front cache of the unique table, interleaved stride 4:
     [v; low; high; id].  The (v, low, high) -> id mapping is immutable
     (nodes are never freed or renumbered), so entries never need
     invalidation and no scope stamp is required.  Its point is locality:
     the slot array grows to hundreds of MB across a long run and every
     probe into it misses cache, while this stays cache-resident. *)
  cons_cache : int array;
  (* The quantification in force: variable v is in the set iff
     [q_mark.(v) = q_stamp], [q_top] is its largest member.  [exists_memo]
     holds results for this set, [q_universal] and the owning scope
     [q_owner] only, and is cleared when any of them changes; [q_vars] is
     the list it was installed from. *)
  mutable q_vars : int list;
  mutable q_universal : bool;
  mutable q_owner : int;
  mutable q_mark : int array;
  mutable q_stamp : int;
  mutable q_top : int;
  exists_memo : memo;
  and_memo : memo; (* one [and_exists] call *)
  walk_memo : memo; (* one [rename], [support], [size] or [sat_count] call *)
  mutable counts : float array; (* [sat_count]'s per-node counts *)
  (* monotone op counters, read racily by [stats] *)
  mutable ite_hits : int;
  mutable ite_misses : int;
  mutable mk_calls : int;
  mutable unique_hits : int;
}

(* Entries of the ITE and cons caches.  On the full Table I suite under
   --eqcheck-each the ITE hit rate is 35.41% at 2^16 entries, 35.19% at
   2^14, 35.02% at 2^13 and 34.28% at 2^12 (DESIGN.md §12). *)
let cache_bits = 14
let cache_mask = (1 lsl cache_bits) - 1
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
      ite_cache = Array.make ((cache_mask + 1) * 5) 0;
      cons_cache = Array.make ((cache_mask + 1) * 4) (-1);
      q_vars = [];
      q_universal = false;
      q_owner = 0;
      q_mark = [||];
      q_stamp = 0;
      q_top = -1;
      exists_memo = memo_create ();
      and_memo = memo_create ();
      walk_memo = memo_create ();
      counts = [||];
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
  let ci = (h3 land cache_mask) * 4 in
  let cc = t.cons_cache in
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
    let c = t.ite_cache in
    let i = (hash3 f g h land cache_mask) * 5 in
    if
      Array.unsafe_get c i = man.uid
      && Array.unsafe_get c (i + 1) = f
      && Array.unsafe_get c (i + 2) = g
      && Array.unsafe_get c (i + 3) = h
    then begin
      t.ite_hits <- t.ite_hits + 1;
      Array.unsafe_get c (i + 4)
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
      Array.unsafe_set c i man.uid;
      Array.unsafe_set c (i + 1) f;
      Array.unsafe_set c (i + 2) g;
      Array.unsafe_set c (i + 3) h;
      Array.unsafe_set c (i + 4) r;
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

(* --- memoised traversals ------------------------------------------------------ *)

(* Each memo serves one operation at a time: no operation that uses a memo
   calls another that uses the same one ([and_exists] calls quantification,
   which has its own; both call only [ite_rec] and [mk_c] besides).  So a
   traversal never finds its memo cleared or refilled under it.  Results
   cannot depend on the memos either: a memo, like the computed caches,
   only decides which sub-results are recomputed, and a recomputation
   conses exactly the nodes the first computation did, all already charged
   to the scope (DESIGN.md §12). *)

let rec mark_all marks stamp = function
  | [] -> ()
  | v :: rest ->
    marks.(v) <- stamp;
    mark_all marks stamp rest

(* Install a quantification's variable set, keeping [exists_memo] only for
   the same set, kind and owner scope. *)
let use_qset man t ~universal vars =
  if
    t.q_owner <> man.uid
    || t.q_universal <> universal
    || not (t.q_vars == vars || t.q_vars = vars)
  then begin
    memo_clear t.exists_memo;
    let top = List.fold_left max (-1) vars in
    if top >= Array.length t.q_mark then
      t.q_mark <- Array.make (max (top + 1) (2 * Array.length t.q_mark)) 0;
    t.q_stamp <- t.q_stamp + 1;
    mark_all t.q_mark t.q_stamp vars;
    t.q_top <- top;
    t.q_vars <- vars;
    t.q_universal <- universal;
    t.q_owner <- man.uid
  end

(* Quantification over the installed set.  A node whose top variable lies
   below every member is returned unchanged. *)
let rec quantify_rec man t f =
  if f < 2 then f
  else begin
    let v = var_of_id t f in
    if v > t.q_top then f
    else begin
      let m = t.exists_memo in
      let r = memo_find m f 0 in
      if r >= 0 then r
      else begin
        let lo = quantify_rec man t (low_of_id t f) in
        let hi = quantify_rec man t (high_of_id t f) in
        let r =
          if Array.unsafe_get t.q_mark v = t.q_stamp then
            if t.q_universal then ite_rec man t lo hi bfalse
            else ite_rec man t lo btrue hi
          else mk_c man t v lo hi
        in
        memo_add m f 0 r;
        r
      end
    end
  end

let quantify man ~universal vars f =
  let t = owned man in
  use_qset man t ~universal vars;
  quantify_rec man t f

let exists man vars f = quantify man ~universal:false vars f
let forall man vars f = quantify man ~universal:true vars f

(* Relational product exists vars (a AND b) in one recursion, over the
   installed existential set, memoised per call in [and_memo]. *)
let rec and_exists_rec man t a b =
  if a = bfalse || b = bfalse then bfalse
  else if a = btrue && b = btrue then btrue
  else if a = btrue then quantify_rec man t b
  else if b = btrue then quantify_rec man t a
  else begin
    let m = t.and_memo in
    let ka = if a <= b then a else b and kb = if a <= b then b else a in
    let r = memo_find m ka kb in
    if r >= 0 then r
    else begin
      let va = var_of_id t a and vb = var_of_id t b in
      let v = if va <= vb then va else vb in
      (* cofactors written out so the recursion allocates no closure *)
      let lo =
        and_exists_rec man t
          (if va = v then low_of_id t a else a)
          (if vb = v then low_of_id t b else b)
      in
      let r =
        if v <= t.q_top && Array.unsafe_get t.q_mark v = t.q_stamp then
          if lo = btrue then btrue
          else
            ite_rec man t lo btrue
              (and_exists_rec man t
                 (if va = v then high_of_id t a else a)
                 (if vb = v then high_of_id t b else b))
        else begin
          let hi =
            and_exists_rec man t
              (if va = v then high_of_id t a else a)
              (if vb = v then high_of_id t b else b)
          in
          mk_c man t v lo hi
        end
      in
      memo_add m ka kb r;
      r
    end
  end

let and_exists man vars a b =
  let t = owned man in
  use_qset man t ~universal:false vars;
  memo_clear t.and_memo;
  and_exists_rec man t a b

let compose man f i g =
  (* Shannon: f[g/i] = ite(g, f_i, f_i') *)
  let hi = cofactor man f i true and lo = cofactor man f i false in
  ite man g hi lo

let rec rename_rec man t mapping f =
  if f < 2 then f
  else begin
    let m = t.walk_memo in
    let r = memo_find m f 0 in
    if r >= 0 then r
    else begin
      let v = var_of_id t f in
      let lo = rename_rec man t mapping (low_of_id t f) in
      let hi = rename_rec man t mapping (high_of_id t f) in
      let v' = mapping v in
      (* Monotonicity on the support keeps levels ordered; build via ite on
         the renamed variable to stay safe even if levels collide. *)
      let r = ite_rec man t (mk_c man t v' bfalse btrue) hi lo in
      memo_add m f 0 r;
      r
    end
  end

let rename man f mapping =
  let t = owned man in
  memo_clear t.walk_memo;
  rename_rec man t mapping f

(* [walk_memo] keys a visited node [f] as [(f, 0)] and a collected variable
   [v] as [(v, 1)] *)
let rec support_rec t m f acc =
  if f < 2 || memo_find m f 0 >= 0 then acc
  else begin
    memo_add m f 0 0;
    let v = var_of_id t f in
    let acc =
      if memo_find m v 1 >= 0 then acc else (memo_add m v 1 0; v :: acc)
    in
    support_rec t m (high_of_id t f) (support_rec t m (low_of_id t f) acc)
  end

let support man f =
  let t = owned man in
  memo_clear t.walk_memo;
  List.sort compare (support_rec t t.walk_memo f [])

let rec size_rec t m f n =
  if f < 2 || memo_find m f 0 >= 0 then n
  else begin
    memo_add m f 0 0;
    size_rec t m (high_of_id t f) (size_rec t m (low_of_id t f) (n + 1))
  end

let size man f =
  let t = owned man in
  memo_clear t.walk_memo;
  size_rec t t.walk_memo f 0

(* the level a node's count starts from: its variable, or [nvars] below the
   last variable for a terminal *)
let level t ~nvars f = if f < 2 then nvars else var_of_id t f

let pow2 k = 2.0 ** float_of_int k

(* Solutions of [f] over the variables from its own level up to [nvars];
   a node's count sits in [t.counts] at the index its memo entry holds. *)
let rec count_rec t m ~nvars f =
  if f < 2 then float_of_int f
  else begin
    let i = memo_find m f 0 in
    if i >= 0 then Array.unsafe_get t.counts i
    else begin
      let v = var_of_id t f in
      let lo = low_of_id t f and hi = high_of_id t f in
      let clo = count_rec t m ~nvars lo *. pow2 (level t ~nvars lo - v - 1) in
      let chi = count_rec t m ~nvars hi *. pow2 (level t ~nvars hi - v - 1) in
      let c = clo +. chi in
      let i = m.live in
      if i = Array.length t.counts then begin
        let grown = Array.make (max 256 (2 * i)) 0.0 in
        Array.blit t.counts 0 grown 0 i;
        t.counts <- grown
      end;
      t.counts.(i) <- c;
      memo_add m f 0 i;
      c
    end
  end

let sat_count man ~nvars f =
  let t = owned man in
  memo_clear t.walk_memo;
  count_rec t t.walk_memo ~nvars f *. pow2 (level t ~nvars f)

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
