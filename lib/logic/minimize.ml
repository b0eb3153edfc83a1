let cost f = (Cover.size f, Cover.lit_count f)

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

let expand ~off f =
  let cubes = List.map (expand_cube ~off) f.Cover.cubes in
  Cover.single_cube_containment { f with Cover.cubes }

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

let minimize ?dc f =
  let dc = match dc with Some d -> d | None -> Cover.empty f.Cover.nvars in
  if Cover.is_empty f then f
  else begin
    let off = Cover.complement (Cover.union f dc) in
    let rec loop best =
      let candidate = best |> expand ~off |> irredundant ~dc |> reduce ~dc in
      let candidate = expand ~off candidate |> irredundant ~dc in
      if cost candidate < cost best then loop candidate else best
    in
    let start = expand ~off f |> irredundant ~dc in
    loop start
  end
