(* Hash-consed ROBDD package over a domain-shared unique table.

   Nodes live in a process-wide (or, in [`Private] mode, per-table) store of
   fixed-size blocks; handles are integer indices and indices 0 and 1 are the
   terminals.  The unique table is striped: a node's hash picks one of
   [nstripes] independently locked open-addressing sub-tables, so concurrent
   domains only contend when they cons into the same stripe at the same
   moment.  Lookups are optimistic and lock-free: published entries are
   write-once, so a probe verifies the (var, low, high) key by value and any
   torn or stale observation degrades to the locked path, never to a wrong
   answer.  Insertion (and stripe growth) always happens under the stripe
   lock, which also makes every lock-holder see fully initialised entries.

   A [man] is no longer a table: it is a *scope* — a lightweight accounting
   handle onto a table.  [create ()] opens a scope on the shared table;
   [create ~mode:`Private ()] builds a fresh table of its own (used by the
   differential tests and the bench baseline).  Each scope tracks the set of
   distinct nodes its operations consed, so [node_count] reports exactly what
   a fresh private manager would have allocated for the same operation
   sequence — node budgets (eqcheck, dontcare) therefore trip identically
   whether the table is cold or warm, serial or parallel.  To keep that
   guarantee, ITE/exists cache entries are stamped with the owning scope and
   ignored by other scopes: sharing happens in the unique table (structure),
   not in the computed caches (work).

   Per-domain state (ITE cache, exists cache, op counters) hangs off a
   [Domain.DLS] key owned by the table, so hot operations never touch a lock
   or another domain's cache lines. *)

type t = int

let bfalse : t = 0
let btrue : t = 1

let terminal_var = max_int

(* --- node store: fixed-size blocks, write-once slots ------------------------- *)

let block_bits = 16
let block_size = 1 lsl block_bits
let block_mask = block_size - 1
let max_blocks = 2048 (* 2048 * 65536 = 134M nodes per table *)

(* Node and slot storage lives in [Bigarray]s, i.e. outside the OCaml heap.
   The store only grows over a process lifetime (the shared table never
   frees a node), and hundreds of MB of live int arrays on the managed heap
   would be re-scanned by every major GC cycle; bigarray payloads are
   opaque to the GC.  Fields are interleaved per node — [var; low; high] at
   offsets 3o..3o+2 — so one traversal step touches one cache line. *)
type ba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type block = ba

let ba_make n fill : ba =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  Bigarray.Array1.fill a fill;
  a

(* sentinel for "no block yet"; recognised by physical equality *)
let dummy_block : block = ba_make 0 0

let make_block () : block = ba_make (block_size * 3) (-2)

(* --- stripes ------------------------------------------------------------------ *)

let nstripes = 64
let stripe_shift = 33 (* stripe index bits disjoint from small slot masks *)

type stripe = {
  s_lock : Sanitize.Lock.t;
  (* interleaved open-addressing slots, stride 4: [v; low; high; id] per
     slot, all fields -1 filled.  id >= 0 marks an occupied slot.  Keeping
     the key inline means a probe step touches one cache line and never
     dereferences the node store.  Slots are write-once within an array
     (key fields first, [published] fence, id last), so a lock-free reader
     that sees non-fill values sees the true key. *)
  mutable s_slots : ba;
  mutable s_count : int;
  mutable s_grows : int;
  mutable s_contended : int;
}

(* --- per-domain caches -------------------------------------------------------- *)

type dcache = {
  c_f : int array;
  c_g : int array;
  c_h : int array;
  c_r : int array;
  c_u : int array; (* owning scope uid of each entry; 0 = empty *)
  c_mask : int;
  (* direct-mapped front cache of the unique table, interleaved stride 4:
     [v; low; high; id].  The (v, low, high) -> id mapping is immutable
     (nodes are never freed or renumbered), so entries never need
     invalidation and no scope stamp is required: a hit is globally valid.
     Its point is locality — the shared table's slot arrays grow to
     hundreds of MB across a long run and every probe into them misses
     cache, while this stays cache-resident per domain. *)
  c_cons : int array;
  c_cons_mask : int;
  exists_cache : (int, int) Hashtbl.t;
  mutable exists_vars : int list;
  mutable exists_owner : int;
  (* monotone op counters, summed racily for stats *)
  mutable d_ite_hits : int;
  mutable d_ite_misses : int;
  mutable d_mk_calls : int;
  mutable d_unique_hits : int;
}

let make_dcache cache_size =
  let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2) in
  let ccap = next_pow2 (max 1024 cache_size) 1024 in
  { c_f = Array.make ccap 0;
    c_g = Array.make ccap 0;
    c_h = Array.make ccap 0;
    c_r = Array.make ccap 0;
    c_u = Array.make ccap 0;
    c_mask = ccap - 1;
    c_cons = Array.make (ccap * 4) (-1);
    c_cons_mask = ccap - 1;
    exists_cache = Hashtbl.create 256;
    exists_vars = [];
    exists_owner = 0;
    d_ite_hits = 0;
    d_ite_misses = 0;
    d_mk_calls = 0;
    d_unique_hits = 0 }

(* --- tables ------------------------------------------------------------------- *)

type table = {
  t_uid : int;
  stripes : stripe array;
  (* authoritative block directory: CAS-installed, so a writer that binds a
     block through here acquires the -2 array fill before storing fields *)
  blocks_sync : block Atomic.t array;
  (* plain mirror of [blocks_sync] for lock-free readers: every element goes
     [dummy_block] -> installed block, and all mirror writers store the same
     pointer, so the race is benign (OCaml rules out torn pointer reads).  A
     reader that observes a stale [dummy_block], or a field still showing the
     -2 fill, degrades to the [published]-synced retry path. *)
  blocks : block array;
  next_id : int Atomic.t;
  (* bumped (a full RMW fence) after node fields are written and before the
     id is published into a stripe slot; readers spin on it when they observe
     a not-yet-visible field *)
  published : int Atomic.t;
  dls : dcache Domain.DLS.key;
  t_caches : dcache list ref; (* every dcache ever created for this table *)
  t_caches_lock : Sanitize.Lock.t;
}

(* process-wide monotone stats, across all tables — commutative atomic
   counters: increments from any domain interleave freely, only totals are
   read, and none is an input to any result *)
let g_allocated = Atomic.make 0
let g_tables = Atomic.make 0
let g_scopes = Atomic.make 0
(* scope uids; 0 is the "no owner" cache stamp *)
let g_uid = Atomic.make 1

(* Lock ranks: the cache registry lock (taken once per domain per table,
   from DLS init) ranks below the stripe locks; neither is ever held while
   acquiring the other, and both rank above the scheduler locks. *)
let order_caches = 30
let order_stripe = 40

let initial_stripe_slots = 64

let make_table ~cache_size () =
  (* uid first: stripe locks carry it in their sanitizer names *)
  let uid = Atomic.fetch_and_add g_uid 1 in
  let caches = ref [] in
  let caches_lock =
    Sanitize.Lock.create ~order:order_caches
      ~name:(Printf.sprintf "bdd.%d.caches" uid)
  in
  let dls =
    Domain.DLS.new_key (fun () ->
        let c = make_dcache cache_size in
        Sanitize.Lock.lock caches_lock;
        caches := c :: !caches;
        Sanitize.Lock.unlock caches_lock;
        c)
  in
  let t =
    { t_uid = uid;
      stripes =
        Array.init nstripes (fun i ->
            { s_lock =
                Sanitize.Lock.create ~order:order_stripe
                  ~name:(Printf.sprintf "bdd.%d.stripe.%d" uid i);
              s_slots = ba_make (initial_stripe_slots * 4) (-1);
              s_count = 0;
              s_grows = 0;
              s_contended = 0 });
      blocks_sync = Array.init max_blocks (fun _ -> Atomic.make dummy_block);
      blocks = Array.make max_blocks dummy_block;
      next_id = Atomic.make 2;
      published = Atomic.make 0;
      dls;
      t_caches = caches;
      t_caches_lock = caches_lock }
  in
  (* terminals live in block 0; install it eagerly *)
  let b0 = make_block () in
  Atomic.set t.blocks_sync.(0) b0;
  t.blocks.(0) <- b0;
  Atomic.incr g_tables;
  t

(* The process-wide shared table, built at module initialisation (before any
   domain can be spawned, so the binding itself is race-free). *)
let shared_table = make_table ~cache_size:(1 lsl 16) ()

type mode = [ `Shared | `Private ]

let g_default_mode : mode Atomic.t = Atomic.make `Shared

let set_default_mode m = Atomic.set g_default_mode m

(* --- scopes ------------------------------------------------------------------- *)

type man = {
  table : table;
  uid : int; (* root scope uid, shared by sub-scopes for cache stamping *)
  parent : man option;
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

let make_scope ~table ~uid ~parent =
  Atomic.incr g_scopes;
  let cap = 256 in
  { table;
    uid;
    parent;
    seen = Array.make cap 0;
    seen_mask = cap - 1;
    seen_n = 0;
    filter = Array.make (filter_mask + 1) 0 }

let create ?(cache_size = 1 lsl 14) ?mode () =
  let mode = match mode with Some m -> m | None -> Atomic.get g_default_mode in
  let table =
    match mode with
    | `Shared -> shared_table
    | `Private -> make_table ~cache_size ()
  in
  make_scope ~table ~uid:(Atomic.fetch_and_add g_uid 1) ~parent:None

let sub_scope man =
  make_scope ~table:man.table ~uid:man.uid ~parent:(Some man)

let same_table a b = a.table == b.table

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

(* returns [true] iff [id] was not in the set yet *)
let seen_add man id =
  let mask = man.seen_mask in
  let s = seen_probe man.seen mask id ((id * 0x9E3779B1) land mask) in
  if s < 0 then false
  else begin
    Array.unsafe_set man.seen s id;
    man.seen_n <- man.seen_n + 1;
    if 3 * man.seen_n >= 2 * (mask + 1) then seen_grow man;
    true
  end

(* A child scope's seen set is always a subset of its parent's (both are
   charged together below), so a hit in the child — filter or set — means
   the whole parent chain already has the id. *)
let rec scope_add man id =
  let fs = (id * 0x9E3779B1) land filter_mask in
  if Array.unsafe_get man.filter fs <> id then begin
    Array.unsafe_set man.filter fs id;
    if seen_add man id then
      match man.parent with Some p -> scope_add p id | None -> ()
  end

let node_count man = 2 + man.seen_n

let adopt dst src =
  if dst.table != src.table then
    invalid_arg "Bdd.adopt: scopes belong to different tables";
  Array.iter (fun id -> if id <> 0 then scope_add dst id) src.seen

(* --- node field access -------------------------------------------------------- *)

(* Fields are write-once: a racy read returns either the initial fill (-2) or
   the final value.  Observing the fill means the publishing domain's writes
   are not yet visible here; syncing on [published] (an atomic the writer
   RMW'd after its field writes) and retrying is enough. *)

(* The cold path of the three field readers below: sync on [published] (an
   atomic the writer RMW'd between writing the fields and publishing the id)
   and retry.  The retry bound turns a broken publication invariant into a
   diagnosable crash instead of a silent livelock; a legitimate wait (writer
   preempted mid-publish) resolves in a handful of iterations. *)
let rec wait_field t read f spins =
  if spins > 100_000_000 then
    failwith
      (Printf.sprintf "Bdd: stuck reading node %d (next_id=%d)" f
         (Atomic.get t.next_id));
  Domain.cpu_relax ();
  (* acquire on [published] pairs with the writer's RMW, making the field
     writes visible; the block itself is read through the CAS-installed
     authoritative directory and mirrored for future fast-path reads *)
  (* lint-waive: mm/naked-atomic-get — this IS the documented sync-retry
     protocol the rule points at: the get is the acquire half of the
     writer's RMW fence, and the field read below is validated by value. *)
  ignore (Atomic.get t.published);
  let bi = f lsr block_bits in
  let b = Atomic.get t.blocks_sync.(bi) in
  if b == dummy_block then wait_field t read f (spins + 1)
  else begin
    if t.blocks.(bi) == dummy_block then t.blocks.(bi) <- b;
    let v = read b (f land block_mask) in
    if v >= -1 then begin
      if Sanitize.enabled () then Sanitize.Pub.read ~table:t.t_uid ~id:f;
      v
    end
    else wait_field t read f (spins + 1)
  end

(* Handles stay below the capacity check in [insert_locked], so the block
   index is always in bounds; the inner offset is masked to the block size. *)
let read_var b o = Bigarray.Array1.get b (o * 3)
let read_low b o = Bigarray.Array1.get b ((o * 3) + 1)
let read_high b o = Bigarray.Array1.get b ((o * 3) + 2)

let var_of_id t f =
  let b = Array.unsafe_get t.blocks (f lsr block_bits) in
  if b != dummy_block then begin
    let v = Bigarray.Array1.unsafe_get b ((f land block_mask) * 3) in
    if v >= -1 then v else wait_field t read_var f 0
  end
  else wait_field t read_var f 0

let low_of_id t f =
  let b = Array.unsafe_get t.blocks (f lsr block_bits) in
  if b != dummy_block then begin
    let v = Bigarray.Array1.unsafe_get b (((f land block_mask) * 3) + 1) in
    if v >= -1 then v else wait_field t read_low f 0
  end
  else wait_field t read_low f 0

let high_of_id t f =
  let b = Array.unsafe_get t.blocks (f lsr block_bits) in
  if b != dummy_block then begin
    let v = Bigarray.Array1.unsafe_get b (((f land block_mask) * 3) + 2) in
    if v >= -1 then v else wait_field t read_high f 0
  end
  else wait_field t read_high f 0

let var_of man f = if f < 2 then terminal_var else var_of_id man.table f

(* --- hashing ------------------------------------------------------------------- *)

(* Fibonacci-style multiplicative mix of a packed triple; the three odd
   constants keep var/low/high from cancelling in the xor. *)
let hash3 v low high =
  let h = (v * 0x9E3779B1) lxor (low * 0x85EBCA77) lxor (high * 0xC2B2AE3D) in
  h lxor (h lsr 17)

(* --- unique table ------------------------------------------------------------- *)

let dcache_of t = Domain.DLS.get t.dls

(* Optimistic probe without the stripe lock.  A non-negative result is
   always a correct find: slots are write-once and the inline key was
   verified by value, so any torn or stale observation shows a -1 fill and
   mismatches.  Anything uncertain (empty slot, over-long chain on a
   possibly stale array) answers -1, meaning "take the stripe lock". *)
let rec probe_loop slots mask v low high s steps =
  if steps > mask then -1
  else begin
    let idx = s * 4 in
    let id = Bigarray.Array1.unsafe_get slots (idx + 3) in
    if id < 0 then -1
    else if
      Bigarray.Array1.unsafe_get slots idx = v
      && Bigarray.Array1.unsafe_get slots (idx + 1) = low
      && Bigarray.Array1.unsafe_get slots (idx + 2) = high
    then id
    else probe_loop slots mask v low high ((s + 1) land mask) (steps + 1)
  end

let probe_lockfree st v low high h3 =
  let slots = st.s_slots in
  let mask = (Bigarray.Array1.dim slots lsr 2) - 1 in
  probe_loop slots mask v low high (h3 land mask) 0

let grow_stripe st =
  let old = st.s_slots in
  let oldn = Bigarray.Array1.dim old lsr 2 in
  let cap = 2 * oldn in
  let fresh = ba_make (cap * 4) (-1) in
  let mask = cap - 1 in
  for i = 0 to oldn - 1 do
    let idx = i * 4 in
    let id = Bigarray.Array1.get old (idx + 3) in
    if id >= 0 then begin
      let v = Bigarray.Array1.get old idx
      and l = Bigarray.Array1.get old (idx + 1)
      and h = Bigarray.Array1.get old (idx + 2) in
      let s = ref (hash3 v l h land mask) in
      while Bigarray.Array1.get fresh ((!s * 4) + 3) >= 0 do
        s := (!s + 1) land mask
      done;
      let fi = !s * 4 in
      Bigarray.Array1.set fresh fi v;
      Bigarray.Array1.set fresh (fi + 1) l;
      Bigarray.Array1.set fresh (fi + 2) h;
      Bigarray.Array1.set fresh (fi + 3) id
    end
  done;
  st.s_slots <- fresh;
  st.s_grows <- st.s_grows + 1

let rec insert_loop t c st slots mask v low high s =
  let idx = s * 4 in
  let id = Bigarray.Array1.get slots (idx + 3) in
  if id < 0 then begin
    let id = Atomic.fetch_and_add t.next_id 1 in
    let bi = id lsr block_bits in
    if bi >= max_blocks then begin
      Sanitize.Lock.unlock st.s_lock;
      failwith "Bdd: node capacity exceeded"
    end;
    (* bind the block via the CAS-installed directory: whether this thread
       installs or loses the race, the acquire orders the -2 fill before
       the field stores below; then mirror for lock-free readers *)
    if Atomic.get t.blocks_sync.(bi) == dummy_block then
      ignore
        (Atomic.compare_and_set t.blocks_sync.(bi) dummy_block (make_block ()));
    let b = Atomic.get t.blocks_sync.(bi) in
    if t.blocks.(bi) == dummy_block then t.blocks.(bi) <- b;
    let o = (id land block_mask) * 3 in
    Bigarray.Array1.set b o v;
    Bigarray.Array1.set b (o + 1) low;
    Bigarray.Array1.set b (o + 2) high;
    Bigarray.Array1.set slots idx v;
    Bigarray.Array1.set slots (idx + 1) low;
    Bigarray.Array1.set slots (idx + 2) high;
    if Sanitize.enabled () then Sanitize.Pub.wrote ~table:t.t_uid ~id;
    (* full fence: the field and key writes above become visible to any
       domain that subsequently syncs on [published] (or takes this
       stripe's lock) before the id below publishes the slot *)
    Atomic.incr t.published;
    if Sanitize.enabled () then Sanitize.Pub.fenced ~table:t.t_uid ~id;
    Bigarray.Array1.set slots (idx + 3) id;
    if Sanitize.enabled () then Sanitize.Pub.published ~table:t.t_uid ~id;
    st.s_count <- st.s_count + 1;
    Atomic.incr g_allocated;
    id
  end
  else if
    Bigarray.Array1.get slots idx = v
    && Bigarray.Array1.get slots (idx + 1) = low
    && Bigarray.Array1.get slots (idx + 2) = high
  then begin
    c.d_unique_hits <- c.d_unique_hits + 1;
    id
  end
  else insert_loop t c st slots mask v low high ((s + 1) land mask)

(* Returns the node id; counts a unique-table hit on [c] itself so the hot
   path stays allocation-free. *)
let insert_locked t c st v low high h3 =
  if not (Sanitize.Lock.try_lock st.s_lock) then begin
    Sanitize.Lock.lock st.s_lock;
    st.s_contended <- st.s_contended + 1
  end;
  (* grow at 2/3 load so probe chains stay short *)
  if 3 * (st.s_count + 1) >= 2 * (Bigarray.Array1.dim st.s_slots lsr 2) then
    grow_stripe st;
  let slots = st.s_slots in
  let mask = (Bigarray.Array1.dim slots lsr 2) - 1 in
  let id = insert_loop t c st slots mask v low high (h3 land mask) in
  Sanitize.Lock.unlock st.s_lock;
  id

let cons man c v low high =
  c.d_mk_calls <- c.d_mk_calls + 1;
  let h3 = hash3 v low high in
  let ci = (h3 land c.c_cons_mask) * 4 in
  let cc = c.c_cons in
  if
    Array.unsafe_get cc ci = v
    && Array.unsafe_get cc (ci + 1) = low
    && Array.unsafe_get cc (ci + 2) = high
  then begin
    let id = Array.unsafe_get cc (ci + 3) in
    c.d_unique_hits <- c.d_unique_hits + 1;
    scope_add man id;
    id
  end
  else begin
    let t = man.table in
    let st =
      Array.unsafe_get t.stripes ((h3 lsr stripe_shift) land (nstripes - 1))
    in
    let id = probe_lockfree st v low high h3 in
    let id =
      if id >= 0 then begin
        (* the lock-free probe trusted a published slot: tell the checker
           this domain will now read node [id]'s fields unfenced *)
        if Sanitize.enabled () then Sanitize.Pub.read ~table:t.t_uid ~id;
        c.d_unique_hits <- c.d_unique_hits + 1;
        id
      end
      else insert_locked t c st v low high h3
    in
    Array.unsafe_set cc ci v;
    Array.unsafe_set cc (ci + 1) low;
    Array.unsafe_set cc (ci + 2) high;
    Array.unsafe_set cc (ci + 3) id;
    scope_add man id;
    id
  end

let mk_c man c v low high = if low = high then low else cons man c v low high

let mk man v low high = mk_c man (dcache_of man.table) v low high

let var man i =
  assert (i >= 0);
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
let rec ite_rec man c f g h =
  if f = btrue then g
  else if f = bfalse then h
  else if g = h then g
  else if g = btrue && h = bfalse then f
  else begin
    let slot = hash3 f g h land c.c_mask in
    if
      c.c_u.(slot) = man.uid
      && c.c_f.(slot) = f
      && c.c_g.(slot) = g
      && c.c_h.(slot) = h
    then begin
      if Sanitize.enabled () then
        Sanitize.Dls.cache_hit ~entry_uid:c.c_u.(slot) ~scope_uid:man.uid;
      c.d_ite_hits <- c.d_ite_hits + 1;
      c.c_r.(slot)
    end
    else begin
      c.d_ite_misses <- c.d_ite_misses + 1;
      let t = man.table in
      let vf = var_of_id t f in
      let vg = if g < 2 then terminal_var else var_of_id t g in
      let vh = if h < 2 then terminal_var else var_of_id t h in
      let v = min vf (min vg vh) in
      (* cofactors written out so the miss path allocates no closure *)
      let ft = if vf = v then high_of_id t f else f in
      let gt = if vg = v then high_of_id t g else g in
      let ht = if vh = v then high_of_id t h else h in
      let hi = ite_rec man c ft gt ht in
      let fe = if vf = v then low_of_id t f else f in
      let ge = if vg = v then low_of_id t g else g in
      let he = if vh = v then low_of_id t h else h in
      let lo = ite_rec man c fe ge he in
      let r = mk_c man c v lo hi in
      c.c_f.(slot) <- f;
      c.c_g.(slot) <- g;
      c.c_h.(slot) <- h;
      c.c_r.(slot) <- r;
      c.c_u.(slot) <- man.uid;
      r
    end
  end

let ite man f g h = ite_rec man (dcache_of man.table) f g h

let bnot man f = ite man f bfalse btrue
let band man f g = ite man f g bfalse
let bor man f g = ite man f btrue g
let bxor man f g = ite man f (bnot man g) g
let bxnor man f g = ite man f g (bnot man g)

let cofactor man f i value =
  let t = man.table in
  let c = dcache_of t in
  let rec go f =
    let v = var_of man f in
    if v > i then f
    else if v = i then (if value then high_of_id t f else low_of_id t f)
    else begin
      let hi = go (high_of_id t f) in
      let lo = go (low_of_id t f) in
      mk_c man c v lo hi
    end
  in
  go f

(* Existential quantification over a variable set.  The per-domain cache is
   keyed on the node only, so it is cleared whenever the variable set or the
   owning scope changes. *)
let quantify man ~universal vars f =
  let vars = List.sort_uniq compare vars in
  let c = dcache_of man.table in
  let key = if universal then -1 :: vars else vars in
  if c.exists_owner <> man.uid || c.exists_vars <> key then begin
    Hashtbl.clear c.exists_cache;
    c.exists_vars <- key;
    c.exists_owner <- man.uid
  end;
  let t = man.table in
  let in_set v = List.mem v vars in
  let rec go f =
    if f < 2 then f
    else begin
      let v = var_of_id t f in
      if List.for_all (fun x -> x < v) vars then f
      else
        match Hashtbl.find_opt c.exists_cache f with
        | Some r ->
          if Sanitize.enabled () then
            Sanitize.Dls.cache_hit ~entry_uid:c.exists_owner
              ~scope_uid:man.uid;
          r
        | None ->
          let lo = go (low_of_id t f) and hi = go (high_of_id t f) in
          let r =
            if in_set v then
              if universal then ite_rec man c lo hi bfalse
              else ite_rec man c lo btrue hi
            else mk_c man c v lo hi
          in
          Hashtbl.add c.exists_cache f r;
          r
    end
  in
  go f

let exists man vars f = quantify man ~universal:false vars f
let forall man vars f = quantify man ~universal:true vars f

(* Relational product exists vars (a AND b) computed in one recursion; cached
   in a local table per call. *)
let and_exists man vars a b =
  let vars = List.sort_uniq compare vars in
  let in_set v = List.mem v vars in
  let t = man.table in
  let c = dcache_of t in
  let cache = Hashtbl.create 1024 in
  let rec go a b =
    if a = bfalse || b = bfalse then bfalse
    else if a = btrue && b = btrue then btrue
    else if a = btrue then exists man vars b
    else if b = btrue then exists man vars a
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
          if in_set v then
            if lo = btrue then btrue
            else ite_rec man c lo btrue (go (cof a va true) (cof b vb true))
          else begin
            let hi = go (cof a va true) (cof b vb true) in
            mk_c man c v lo hi
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
  let t = man.table in
  let c = dcache_of t in
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
        let r = ite_rec man c (mk_c man c v' bfalse btrue) hi lo in
        Hashtbl.add cache f r;
        r
  in
  go f

let support man f =
  let t = man.table in
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
  let t = man.table in
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
  let t = man.table in
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
  let t = man.table in
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
  let t = man.table in
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
  let t = man.table in
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
  shared_nodes : int;
  shared_capacity : int;
  shared_load_pct : float;
  ite_hits : int;
  ite_misses : int;
  mk_calls : int;
  unique_hits : int;
  stripe_contention : int;
  stripe_grows : int;
  tables_created : int;
  scopes_opened : int;
  nodes_allocated_total : int;
}

let stats () =
  let t = shared_table in
  let capacity = ref 0
  and load = ref 0
  and contention = ref 0
  and grows = ref 0 in
  Array.iter
    (fun st ->
      capacity := !capacity + (Bigarray.Array1.dim st.s_slots lsr 2);
      load := !load + st.s_count;
      (* lint-waive: typed/lock-discipline -- racy monitoring read;
         stats () is offline-only and tolerates a stale count *)
      contention := !contention + st.s_contended;
      grows := !grows + st.s_grows)
    t.stripes;
  let hits = ref 0 and misses = ref 0 and mk = ref 0 and uhits = ref 0 in
  List.iter
    (fun c ->
      hits := !hits + c.d_ite_hits;
      misses := !misses + c.d_ite_misses;
      mk := !mk + c.d_mk_calls;
      uhits := !uhits + c.d_unique_hits)
    !(t.t_caches);
  { shared_nodes = Atomic.get t.next_id - 2;
    shared_capacity = !capacity;
    shared_load_pct =
      (if !capacity = 0 then 0.0
       else 100.0 *. float_of_int !load /. float_of_int !capacity);
    ite_hits = !hits;
    ite_misses = !misses;
    mk_calls = !mk;
    unique_hits = !uhits;
    stripe_contention = !contention;
    stripe_grows = !grows;
    tables_created = Atomic.get g_tables;
    scopes_opened = Atomic.get g_scopes;
    nodes_allocated_total = Atomic.get g_allocated }

let total_allocated () = Atomic.get g_allocated

let publish_stats () =
  let s = stats () in
  let g name v = Obs.Metrics.set_gauge (Obs.Metrics.gauge name) v in
  let f = float_of_int in
  g "bdd.shared.nodes" (f s.shared_nodes);
  g "bdd.shared.capacity" (f s.shared_capacity);
  g "bdd.shared.load_pct" s.shared_load_pct;
  g "bdd.ite.hits" (f s.ite_hits);
  g "bdd.ite.misses" (f s.ite_misses);
  g "bdd.ite.hit_pct"
    (let total = s.ite_hits + s.ite_misses in
     if total = 0 then 0.0 else 100.0 *. f s.ite_hits /. f total);
  g "bdd.mk.calls" (f s.mk_calls);
  g "bdd.mk.unique_hits" (f s.unique_hits);
  g "bdd.stripe.contention" (f s.stripe_contention);
  g "bdd.stripe.grows" (f s.stripe_grows);
  g "bdd.tables" (f s.tables_created);
  g "bdd.scopes" (f s.scopes_opened);
  g "bdd.nodes_allocated_total" (f s.nodes_allocated_total)
