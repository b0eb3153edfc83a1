type expr =
  | Const of bool
  | Lit of int * bool
  | And of expr list
  | Or of expr list

let rec eval expr point =
  match expr with
  | Const b -> b
  | Lit (v, phase) -> if phase then point.(v) else not point.(v)
  | And es -> List.for_all (fun e -> eval e point) es
  | Or es -> List.exists (fun e -> eval e point) es

let rec to_cover n expr =
  match expr with
  | Const false -> Cover.empty n
  | Const true -> Cover.tautology_cover n
  | Lit (v, true) -> Cover.var n v
  | Lit (v, false) -> Cover.nvar n v
  | And es ->
    List.fold_left
      (fun acc e -> Cover.intersect acc (to_cover n e))
      (Cover.tautology_cover n) es
  | Or es ->
    List.fold_left
      (fun acc e -> Cover.union acc (to_cover n e))
      (Cover.empty n) es

let rec literal_count = function
  | Const _ -> 0
  | Lit _ -> 1
  | And es | Or es -> List.fold_left (fun acc e -> acc + literal_count e) 0 es

let rec pp fmt = function
  | Const b -> Format.pp_print_string fmt (if b then "1" else "0")
  | Lit (v, true) -> Format.fprintf fmt "x%d" v
  | Lit (v, false) -> Format.fprintf fmt "x%d'" v
  | And es ->
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "*")
      pp_atom fmt es
  | Or es ->
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " + ")
      pp fmt es

and pp_atom fmt e =
  match e with
  | Or (_ :: _ :: _) -> Format.fprintf fmt "(%a)" pp e
  | Or _ | Const _ | Lit _ | And _ -> pp fmt e

let divide_by_cube f c =
  let quotient = ref [] and remainder = ref [] in
  let strip cube =
    (* The cube is divisible by [c] iff it carries every literal of [c];
       removing them is exactly the cube cofactor against [c]. *)
    if Cube.contains c cube then
      match Cube.cube_cofactor cube c with
      | Some out -> quotient := out :: !quotient
      | None -> assert false (* containment implies intersection *)
    else remainder := cube :: !remainder
  in
  List.iter strip f.Cover.cubes;
  ( Cover.make f.Cover.nvars (List.rev !quotient),
    Cover.make f.Cover.nvars (List.rev !remainder) )

module CS = Set.Make (struct
  type t = Cube.t
  let compare = Cube.compare
end)

(* Weak division's quotient by the divisor cubes [first :: rest], as a set:
   the intersection of the per-cube quotients.  It stops once the
   intersection is empty. *)
let quotient_set f first rest =
  let per_cube dc = CS.of_list (fst (divide_by_cube f dc)).Cover.cubes in
  let rec meet acc = function
    | dc :: rest when not (CS.is_empty acc) -> meet (CS.inter acc (per_cube dc)) rest
    | [] | _ :: _ -> acc
  in
  meet (per_cube first) rest

let divide f d =
  match d.Cover.cubes with
  | [] -> (Cover.empty f.Cover.nvars, f)
  | first :: rest ->
    (* Weak division: Q = intersection over divisor cubes of per-cube
       quotients; R = f - d*Q. *)
    let q = Cover.make f.Cover.nvars (CS.elements (quotient_set f first rest)) in
    if Cover.is_empty q then (q, f)
    else begin
      (* algebraic product d*q, then remainder = cubes of f not produced *)
      let product =
        List.concat_map
          (fun dc ->
            List.filter_map (fun qc -> Cube.intersect dc qc) q.Cover.cubes)
          d.Cover.cubes
      in
      let product_set = CS.of_list product in
      let r =
        List.filter (fun c -> not (CS.mem c product_set)) f.Cover.cubes
      in
      (q, Cover.make f.Cover.nvars r)
    end

let common_cube f =
  match f.Cover.cubes with
  | [] -> None
  | first :: rest ->
    let acc = List.fold_left Cube.supercube first rest in
    if Cube.lit_count acc = 0 then None else Some acc

let cube_free f = common_cube f = None && Cover.size f > 1

let make_cube_free f =
  match common_cube f with
  | None -> f
  | Some c ->
    let q, _ = divide_by_cube f c in
    q

(* Recursive kernel enumeration (Brayton-McMullen).  For each variable with
   two or more occurrences, cofactor out the largest common cube and recurse;
   collect cube-free quotients as kernels with their co-kernels.  A literal
   whose common cube binds a variable below it is skipped: dividing by that
   lower literal first reaches the same quotient, with the same later
   variables left to try, earlier in the depth-first order. *)
let kernels f =
  let n = f.Cover.nvars in
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let add co_kernel kernel =
    let key = List.sort Cube.compare kernel.Cover.cubes in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      out := (co_kernel, kernel) :: !out
    end
  in
  let rec kern g co_kernel from_var =
    if cube_free g then add co_kernel g;
    for v = from_var to n - 1 do
      List.iter
        (fun phase ->
          let lit_cube = Cube.set_var (Cube.universe n) v phase in
          let with_lit =
            List.filter
              (fun c -> Cube.get c v = phase)
              g.Cover.cubes
          in
          if List.length with_lit >= 2 then begin
            let sub = Cover.make n with_lit in
            let q, _ = divide_by_cube sub lit_cube in
            let shared = common_cube q in
            let found_earlier =
              match shared with
              | None -> false
              | Some c ->
                let rec lower w = w < v && (Cube.depends_on c w || lower (w + 1)) in
                lower 0
            in
            let common =
              match shared with
              | None -> lit_cube
              | Some c ->
                (match Cube.intersect c lit_cube with
                 | Some x -> x
                 | None -> lit_cube)
            in
            let q = make_cube_free q in
            if (not found_earlier) && Cover.size q >= 2 then begin
              let ck =
                match Cube.intersect co_kernel common with
                | Some x -> x
                | None -> common
              in
              add ck q;
              kern q ck (v + 1)
            end
          end)
        [ Cube.One; Cube.Zero ]
    done
  in
  kern (make_cube_free f) (Cube.universe n) 0;
  if cube_free f then add (Cube.universe n) f;
  !out

let cube_to_expr c =
  let lits = ref [] in
  Cube.iteri
    (fun v l ->
      match l with
      | Cube.One -> lits := Lit (v, true) :: !lits
      | Cube.Zero -> lits := Lit (v, false) :: !lits
      | Cube.Both -> ())
    c;
  match !lits with
  | [] -> Const true
  | [ one ] -> one
  | several -> And (List.rev several)

let smart_or = function
  | [] -> Const false
  | [ one ] -> one
  | several -> Or several

let smart_and = function
  | [] -> Const true
  | [ one ] -> one
  | several -> And several

let best_literal f =
  let n = f.Cover.nvars in
  let best = ref None and best_count = ref 1 in
  for v = 0 to n - 1 do
    List.iter
      (fun phase ->
        let count =
          List.length (List.filter (fun c -> Cube.get c v = phase) f.Cover.cubes)
        in
        if count > !best_count then begin
          best := Some (v, phase);
          best_count := count
        end)
      [ Cube.One; Cube.Zero ]
  done;
  !best

let rec quick_factor f =
  match f.Cover.cubes with
  | [] -> Const false
  | [ c ] -> cube_to_expr c
  | _ :: _ :: _ ->
    if List.exists (fun c -> Cube.lit_count c = 0) f.Cover.cubes then Const true
    else begin
      match best_literal f with
      | None -> smart_or (List.map cube_to_expr f.Cover.cubes)
      | Some (v, phase) ->
        let n = f.Cover.nvars in
        let lit_cube = Cube.set_var (Cube.universe n) v phase in
        let q, r = divide_by_cube f lit_cube in
        let q_expr = quick_factor q in
        let head = smart_and [ Lit (v, phase = Cube.One); q_expr ] in
        if Cover.is_empty r then head
        else smart_or [ head; quick_factor r ]
    end

(* The quotient's cube count alone: no product or remainder is built. *)
let kernel_value f (_ck, k) =
  match k.Cover.cubes with
  | [] -> 0
  | first :: rest ->
    CS.cardinal (quotient_set f first rest) * (Cover.lit_count k - 1)

let rec good_factor f =
  match f.Cover.cubes with
  | [] -> Const false
  | [ c ] -> cube_to_expr c
  | _ :: _ :: _ ->
    if List.exists (fun c -> Cube.lit_count c = 0) f.Cover.cubes then Const true
    else begin
      let candidates =
        kernels f
        |> List.filter (fun (_, k) -> Cover.size k >= 2 && Cover.size k < Cover.size f)
      in
      match candidates with
      | [] -> quick_factor f
      | _ :: _ ->
        let best =
          List.fold_left
            (fun acc cand ->
              match acc with
              | None -> Some (cand, kernel_value f cand)
              | Some (_, v) ->
                let v' = kernel_value f cand in
                if v' > v then Some (cand, v') else acc)
            None candidates
        in
        (match best with
         | None -> quick_factor f
         | Some ((_, k), value) when value > 0 ->
           let q, r = divide f k in
           if Cover.is_empty q then quick_factor f
           else begin
             let head = smart_and [ good_factor q; good_factor k ] in
             if Cover.is_empty r then head else smart_or [ head; good_factor r ]
           end
         | Some _ -> quick_factor f)
    end
