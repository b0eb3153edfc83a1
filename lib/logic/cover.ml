type t = { nvars : int; cubes : Cube.t list }

let make nvars cubes =
  List.iter (fun c -> assert (Cube.nvars c = nvars)) cubes;
  { nvars; cubes }

let empty nvars = { nvars; cubes = [] }

let tautology_cover nvars = { nvars; cubes = [ Cube.universe nvars ] }

let of_strings nvars strings =
  make nvars (List.map Cube.of_string strings)

let var nvars v = { nvars; cubes = [ Cube.set_var (Cube.universe nvars) v Cube.One ] }

let nvar nvars v = { nvars; cubes = [ Cube.set_var (Cube.universe nvars) v Cube.Zero ] }

let size f = List.length f.cubes

let lit_count f = List.fold_left (fun acc c -> acc + Cube.lit_count c) 0 f.cubes

let is_empty f = f.cubes = []

let eval f point = List.exists (fun c -> Cube.eval c point) f.cubes

let cofactor f v value =
  let cubes = List.filter_map (fun c -> Cube.cofactor c v value) f.cubes in
  { f with cubes }

let cube_cofactor f cube =
  (* Cofactor of each cube of [f] against [cube]: drop disjoint cubes and
     raise the variables bound by [cube] — word-parallel per cube. *)
  { f with cubes = List.filter_map (fun c -> Cube.cube_cofactor c cube) f.cubes }

let union a b =
  assert (a.nvars = b.nvars);
  { a with cubes = a.cubes @ b.cubes }

(* Metrics published once per sweep (locally accumulated in the loops, so the
   kernel itself stays branch-free on the probe path). *)
let m_scc_calls = Obs.Metrics.counter "logic.scc.calls"
let m_scc_probes = Obs.Metrics.counter "logic.scc.pairs_probed"
let m_scc_prefilter = Obs.Metrics.counter "logic.scc.prefilter_rejects"
let m_scc_contains = Obs.Metrics.counter "logic.scc.contains_calls"
let m_scc_size = Obs.Metrics.histogram "logic.scc.cover_size"

let single_cube_containment f =
  (* Deduplicate first so identical cubes do not protect each other. *)
  let dedup = Array.of_list (List.sort_uniq Cube.compare f.cubes) in
  let k = Array.length dedup in
  if k <= 1 then { f with cubes = Array.to_list dedup }
  else begin
    (* Signature and literal-count prefilters: [contains d c] requires
       [sig c land lnot (sig d) = 0] and [lit_count d < lit_count c] (strict,
       because distinct cubes of equal literal count cannot contain each
       other).  Both reject in O(1) before the word sweep. *)
    let sigs = Array.map Cube.signature dedup in
    let counts = Array.map Cube.lit_count dedup in
    let probes = ref 0 and prefilter = ref 0 and contains = ref 0 in
    let probe i j =
      (* does [j] strictly cover [i]? *)
      incr probes;
      if
        counts.(j) < counts.(i)
        && sigs.(i) land lnot sigs.(j) = 0
      then begin
        incr contains;
        Cube.contains dedup.(j) dedup.(i)
      end
      else begin
        incr prefilter;
        false
      end
    in
    let covered i =
      let rec loop j = j < k && ((j <> i && probe i j) || loop (j + 1)) in
      loop 0
    in
    let out = ref [] in
    for i = k - 1 downto 0 do
      if not (covered i) then out := dedup.(i) :: !out
    done;
    if Obs.Metrics.enabled () then begin
      Obs.Metrics.incr m_scc_calls;
      Obs.Metrics.observe m_scc_size k;
      Obs.Metrics.add m_scc_probes !probes;
      Obs.Metrics.add m_scc_prefilter !prefilter;
      Obs.Metrics.add m_scc_contains !contains
    end;
    { f with cubes = !out }
  end

let depends_on f v = List.exists (fun c -> Cube.depends_on c v) f.cubes

let support f =
  let rec loop v acc =
    if v < 0 then acc
    else loop (v - 1) (if depends_on f v then v :: acc else acc)
  in
  loop (f.nvars - 1) []

(* Pick the best splitting variable: the most binate one (appears in both
   phases in many cubes); fall back to the most frequent variable.  Returns
   -1 when no cube has a literal, and whether the variable is binate: when it
   is not, no variable is and the cover is unate. *)
let binate_select f =
  let n = f.nvars in
  let pos = Array.make n 0 and neg = Array.make n 0 in
  let count c =
    Cube.iteri
      (fun v l ->
        match l with
        | Cube.One -> pos.(v) <- pos.(v) + 1
        | Cube.Zero -> neg.(v) <- neg.(v) + 1
        | Cube.Both -> ())
      c
  in
  List.iter count f.cubes;
  let best = ref (-1) and best_key = ref (-1, -1) in
  for v = 0 to n - 1 do
    if pos.(v) + neg.(v) > 0 then begin
      let key = (min pos.(v) neg.(v), pos.(v) + neg.(v)) in
      if key > !best_key then begin
        best := v;
        best_key := key
      end
    end
  done;
  (!best, fst !best_key > 0)

(* A cover of at most [Cube.word_vars] variables is its truth table in one
   word: the OR of its cubes' word masks. *)
let narrow f = f.nvars <= Cube.word_vars

let word_mask f = List.fold_left (fun acc c -> acc lor Cube.word_mask c) 0 f.cubes

let rec unate_tautology f =
  if List.exists (fun c -> Cube.lit_count c = 0) f.cubes then true
  else if f.cubes = [] then false
  else begin
    let v, binate = binate_select f in
    (* A unate cover is a tautology only if it holds the universe cube,
       which the first test ruled out: its all-opposite-phase point is 0. *)
    if v < 0 || not binate then false
    else
      unate_tautology (cofactor f v Cube.One)
      && unate_tautology (cofactor f v Cube.Zero)
  end

let is_tautology f =
  if narrow f then word_mask f = Cube.full_word else unate_tautology f

let covers_cube f c =
  if narrow f && Cube.nvars c <= Cube.word_vars then
    Cube.word_mask c land lnot (word_mask f) = 0
  else unate_tautology (cube_cofactor f c)

let covers f g =
  if narrow f && narrow g then word_mask g land lnot (word_mask f) = 0
  else List.for_all (covers_cube f) g.cubes

let intersect a b =
  assert (a.nvars = b.nvars);
  let cubes =
    List.concat_map
      (fun ca -> List.filter_map (fun cb -> Cube.intersect ca cb) b.cubes)
      a.cubes
  in
  single_cube_containment { a with cubes }

(* Complement by Shannon expansion:
   not f = x' * not(f_x') + x * not(f_x).  Terminal cases: empty cover and
   covers containing the universe cube.  A single-cube complement is computed
   directly by De Morgan.

   Every result is sorted by [Cube.compare] with no cube contained in
   another, which is what [single_cube_containment] returns.  Neither half of
   a split binds the split variable, so attaching its two literals keeps each
   half so and makes the halves disjoint: merging them in [Cube.compare]
   order gives the containment sweep's result without running it. *)
let rec complement f =
  if f.cubes = [] then tautology_cover f.nvars
  else if List.exists (fun c -> Cube.lit_count c = 0) f.cubes then empty f.nvars
  else
    match f.cubes with
    | [] -> assert false (* handled above *)
    | [ c ] ->
      let cubes = ref [] in
      Cube.iteri
        (fun v l ->
          match l with
          | Cube.Both -> ()
          | Cube.One ->
            cubes := Cube.set_var (Cube.universe f.nvars) v Cube.Zero :: !cubes
          | Cube.Zero ->
            cubes := Cube.set_var (Cube.universe f.nvars) v Cube.One :: !cubes)
        c;
      { f with cubes = List.rev !cubes }
    | _ :: _ :: _ ->
      let v, _ = binate_select f in
      assert (v >= 0);
      (* the halves do not bind [v], so attaching a literal is setting it *)
      let attach value g = List.map (fun c -> Cube.set_var c v value) g.cubes in
      let hi = complement (cofactor f v Cube.One) in
      let lo = complement (cofactor f v Cube.Zero) in
      { f with
        cubes =
          List.merge Cube.compare (attach Cube.One hi) (attach Cube.Zero lo) }

let sharp a b =
  if b.cubes = [] then a
  else intersect a (complement b)

let equivalent a b =
  if narrow a && narrow b then word_mask a = word_mask b
  else covers a b && covers b a

let minterms f =
  let n = f.nvars in
  let out = ref [] in
  let point = Array.make n false in
  let rec enum v =
    if v = n then begin
      if eval f point then out := Array.copy point :: !out
    end
    else begin
      point.(v) <- false;
      enum (v + 1);
      point.(v) <- true;
      enum (v + 1)
    end
  in
  enum 0;
  List.rev !out

let rename f nvars' map =
  let rename_cube c =
    let out = Cube.universe nvars' in
    Cube.iteri
      (fun v l -> if l <> Cube.Both then Cube.set out map.(v) l)
      c;
    out
  in
  { nvars = nvars'; cubes = List.map rename_cube f.cubes }

let pp fmt f =
  if f.cubes = [] then Format.pp_print_string fmt "<0>"
  else
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " + ")
      Cube.pp fmt f.cubes
