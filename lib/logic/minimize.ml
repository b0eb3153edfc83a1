let cost f = (Cover.size f, Cover.lit_count f)

(* The loop's three passes over one set representation: the cover path
   below, or the dense truth tables of [Dense]. *)
type passes = {
  expand_cube : Cube.t -> Cube.t;
  irredundant : Cover.t -> Cover.t;
  reduce : Cover.t -> Cover.t;
}

let expand_with expand_cube f =
  Cover.single_cube_containment
    { f with Cover.cubes = List.map expand_cube f.Cover.cubes }

let run p f =
  let expand = expand_with p.expand_cube in
  let rec loop best =
    let candidate = best |> expand |> p.irredundant |> p.reduce in
    let candidate = expand candidate |> p.irredundant in
    if cost candidate < cost best then loop candidate else best
  in
  loop (expand f |> p.irredundant)

(* --- cover path ------------------------------------------------------------ *)

(* A cube is feasible iff it does not intersect the OFF-set. *)
let feasible ~(off : Cover.t) cube =
  not (List.exists (fun c -> Cube.intersects c cube) off.Cover.cubes)

let expand_cube ~off cube =
  let n = Cube.nvars cube in
  (* One scratch cube for the whole expansion: each probe raises a variable
     in place and restores it when the raised cube hits the OFF-set. *)
  let current = Cube.copy cube in
  (* Greedy left-to-right.  One sweep is already a fixpoint: the cube only
     grows, so a raise that hit the OFF-set once would hit it again. *)
  for v = 0 to n - 1 do
    let saved = Cube.get current v in
    if saved <> Cube.Both then begin
      Cube.set current v Cube.Both;
      if not (feasible ~off current) then Cube.set current v saved
    end
  done;
  current

let expand ~off f = expand_with (expand_cube ~off) f

(* Both passes below repeatedly need "every cube but the current one, plus
   the DC set" as a cover.  The cubes are already width-checked, so the
   scratch cover is assembled by consing straight onto the DC list — no
   [Cover.make] re-validation, one list spine per probe. *)
let others_with ~dc kept rest =
  { dc with Cover.cubes = List.rev_append kept (List.rev_append rest dc.Cover.cubes) }

let irredundant ~dc f =
  let rec loop kept = function
    | [] -> List.rev kept
    | c :: rest ->
      if Cover.covers_cube (others_with ~dc kept rest) c then loop kept rest
      else loop (c :: kept) rest
  in
  { f with Cover.cubes = loop [] f.Cover.cubes }

let reduce ~dc f =
  let reduce_cube kept rest c =
    (* Essential part of [c]: minterms of [c] not covered by the rest of the
       cover nor the DC set.  Replace [c] by the supercube of that part.
       Inside [c] the rest agrees with its cofactor against [c], which is
       far smaller to complement than the whole rest. *)
    let essential =
      Cover.sharp { f with Cover.cubes = [ c ] }
        (Cover.cube_cofactor (others_with ~dc kept rest) c)
    in
    match essential.Cover.cubes with
    | [] -> None (* fully redundant *)
    | first :: more -> Some (List.fold_left Cube.supercube first more)
  in
  let rec loop kept = function
    | [] -> List.rev kept
    | c :: rest ->
      (match reduce_cube kept rest c with
       | None -> loop kept rest
       | Some c' -> loop (c' :: kept) rest)
  in
  { f with Cover.cubes = loop [] f.Cover.cubes }

let by_cover ~dc f =
  let off = Cover.complement (Cover.union f dc) in
  run { expand_cube = expand_cube ~off; irredundant = irredundant ~dc;
        reduce = reduce ~dc }
    f

(* --- dense path ------------------------------------------------------------ *)

module Dense = struct
  open Truthtab

  type t = {
    on_dc : Truthtab.t;
    dc : int array;
    mutable buf : int array;  (* the call's one scratch buffer; see [scan] *)
  }

  (* OR the span's points into the table that starts at [at] in [buf]. *)
  let add buf at { mask; base; free } =
    let rec loop s =
      buf.(at + (base lor s)) <- buf.(at + (base lor s)) lor mask;
      if s <> free then loop (next_subset free s)
    in
    loop 0

  (* A raise is kept iff the cube's flipped half lies in ON ∪ DC: the cube
     itself already does. *)
  let expand_cube d cube =
    let current = Cube.copy cube in
    let sp = ref (span cube) in
    for v = 0 to Cube.nvars cube - 1 do
      match Cube.get current v with
      | Cube.Both -> ()
      | lit ->
        let s = !sp in
        let flipped, raised =
          if v < word_vars then begin
            let sh = 1 lsl v in
            let m = if lit = Cube.One then s.mask lsr sh else s.mask lsl sh in
            ({ s with mask = m }, { s with mask = s.mask lor m })
          end
          else begin
            let b = 1 lsl (v - word_vars) in
            ( { s with base = s.base lxor b },
              { s with base = s.base land lnot b; free = s.free lor b } )
          end
        in
        if within d.on_dc flipped then begin
          Cube.set current v Cube.Both;
          sp := raised
        end
    done;
    current

  (* Visit the cubes in order.  [step c ~bits ~words_and ~words_or] sees the
     points of [c] outside the rest of the cover plus DC, where the rest is
     the cubes [step] kept before [c] and the cubes after it: the OR of their
     in-word bits (0 when there are none) and the AND and OR of the indices
     of the words they occupy.  It returns the cube to keep, if any.  With
     [~first], the scan of [c] stops at the first word holding such points,
     and [step] sees only those. *)
  let scan ~first d (f : Cover.t) step =
    let cubes = Array.of_list f.Cover.cubes in
    let spans = Array.map span cubes in
    let k = Array.length cubes and nw = Array.length d.dc in
    (* buf: the running table (DC plus the cubes kept so far) at 0, the
       suffix table (the cubes not yet visited) at [nw], then the suffix
       words saved under cube [i] at [offsets.(i)] *)
    let offsets = Array.make k 0 in
    let total = ref (2 * nw) in
    for i = 0 to k - 1 do
      offsets.(i) <- !total;
      total := !total + span_words spans.(i)
    done;
    if Array.length d.buf < !total then
      d.buf <- Array.make (max !total (2 * Array.length d.buf)) 0;
    let buf = d.buf in
    Array.fill buf nw nw 0;
    for i = k - 1 downto 0 do
      let { base; free; _ } = spans.(i) and off = offsets.(i) in
      let rec save j s =
        buf.(off + j) <- buf.(nw + (base lor s));
        if s <> free then save (j + 1) (next_subset free s)
      in
      save 0 0;
      add buf nw spans.(i)
    done;
    Array.blit d.dc 0 buf 0 nw;
    let kept = ref [] in
    for i = 0 to k - 1 do
      let { mask; base; free } = spans.(i) and off = offsets.(i) in
      let bits = ref 0 and words_and = ref (-1) and words_or = ref 0 in
      let rec walk j s =
        let w = base lor s in
        let e = mask land lnot (buf.(w) lor buf.(off + j)) in
        if e <> 0 then begin
          bits := !bits lor e;
          words_and := !words_and land w;
          words_or := !words_or lor w
        end;
        if s <> free && (e = 0 || not first) then
          walk (j + 1) (next_subset free s)
      in
      walk 0 0;
      match
        step cubes.(i) ~bits:!bits ~words_and:!words_and ~words_or:!words_or
      with
      | None -> ()
      | Some c ->
        kept := c :: !kept;
        add buf 0 (if c == cubes.(i) then spans.(i) else span c)
    done;
    { f with Cover.cubes = List.rev !kept }

  let irredundant d f =
    scan ~first:true d f (fun c ~bits ~words_and:_ ~words_or:_ ->
        if bits = 0 then None else Some c)

  let reduce d f =
    scan ~first:false d f (fun c ~bits ~words_and ~words_or ->
        if bits = 0 then None
        else Some (supercube (Cube.nvars c) ~bits ~words_and ~words_or))

  let passes ~dc f =
    let d =
      { on_dc = of_cover (Cover.union f dc);
        dc = words (of_cover dc);
        buf = [||] }
    in
    { expand_cube = expand_cube d; irredundant = irredundant d;
      reduce = reduce d }
end

let dense_max_vars = 14

let m_calls = Obs.Metrics.counter "logic.minimize.calls"
let m_dense = Obs.Metrics.counter "logic.minimize.dense"

let dc_or_empty dc f =
  match dc with Some d -> d | None -> Cover.empty f.Cover.nvars

let minimize ?dc f =
  let dc = dc_or_empty dc f in
  let dense = f.Cover.nvars <= dense_max_vars in
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr m_calls;
    if dense then Obs.Metrics.incr m_dense
  end;
  if Cover.is_empty f then f
  else if dense then run (Dense.passes ~dc f) f
  else by_cover ~dc f

module Internal = struct
  let by_cover ?dc f = by_cover ~dc:(dc_or_empty dc f) f
end
