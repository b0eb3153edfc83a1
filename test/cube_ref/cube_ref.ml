(* Legacy cube representation: one variant per literal, element-wise loops.
   Kept verbatim as the reference implementation for differential testing of
   the packed kernel in {!Logic.Cube}, and as the baseline side of the
   [bench --logic] minimization microbenchmark.  Not used by the flow, so it
   lives outside lib/ and is linked only by test_logic_packed and the bench
   harness. *)

module Cube = Logic.Cube

type lit = Cube.lit = Zero | One | Both

type t = lit array

let universe n = Array.make n Both

let of_string s =
  let lit_of_char = function
    | '0' -> Zero
    | '1' -> One
    | '-' -> Both
    | c -> invalid_arg (Printf.sprintf "Cube_ref.of_string: bad character %c" c)
  in
  Array.init (String.length s) (fun i -> lit_of_char s.[i])

let to_string c =
  let char_of_lit = function Zero -> '0' | One -> '1' | Both -> '-' in
  String.init (Array.length c) (fun i -> char_of_lit c.(i))

let minterm n point =
  assert (Array.length point = n);
  Array.init n (fun i -> if point.(i) then One else Zero)

let nvars = Array.length

let lit_count c =
  Array.fold_left (fun acc l -> if l = Both then acc else acc + 1) 0 c

let is_minterm c = lit_count c = nvars c

let equal (a : t) (b : t) = a = b

let compare (a : t) (b : t) = Stdlib.compare a b

let contains a b =
  let n = Array.length a in
  let rec loop i =
    if i >= n then true
    else
      match a.(i), b.(i) with
      | Both, _ -> loop (i + 1)
      | One, One | Zero, Zero -> loop (i + 1)
      | One, (Zero | Both) | Zero, (One | Both) -> false
  in
  Array.length b = n && loop 0

let intersect a b =
  let n = Array.length a in
  let out = Array.make n Both in
  let rec loop i =
    if i >= n then Some out
    else
      match a.(i), b.(i) with
      | Zero, One | One, Zero -> None
      | Both, l | l, Both -> out.(i) <- l; loop (i + 1)
      | One, One -> out.(i) <- One; loop (i + 1)
      | Zero, Zero -> out.(i) <- Zero; loop (i + 1)
  in
  loop 0

let intersects a b = intersect a b <> None

let distance a b =
  let d = ref 0 in
  for i = 0 to Array.length a - 1 do
    match a.(i), b.(i) with
    | Zero, One | One, Zero -> incr d
    | Zero, (Zero | Both) | One, (One | Both) | Both, (Zero | One | Both) -> ()
  done;
  !d

let consensus a b =
  if distance a b <> 1 then None
  else begin
    let n = Array.length a in
    let out = Array.make n Both in
    for i = 0 to n - 1 do
      match a.(i), b.(i) with
      | Zero, One | One, Zero -> out.(i) <- Both
      | Both, l | l, Both -> out.(i) <- l
      | One, One -> out.(i) <- One
      | Zero, Zero -> out.(i) <- Zero
    done;
    Some out
  end

let supercube a b =
  Array.init (Array.length a) (fun i ->
      match a.(i), b.(i) with
      | One, One -> One
      | Zero, Zero -> Zero
      | One, (Zero | Both) | Zero, (One | Both) | Both, (Zero | One | Both) ->
        Both)

let cofactor c v value =
  assert (value <> Both);
  match c.(v), value with
  | Both, _ -> Some (Array.copy c)
  | One, One | Zero, Zero ->
    let out = Array.copy c in
    out.(v) <- Both;
    Some out
  | One, Zero | Zero, One -> None
  | (Zero | One), Both -> assert false

let cube_cofactor c d =
  if not (intersects c d) then None
  else begin
    let out = Array.copy c in
    Array.iteri (fun v l -> if l <> Both then out.(v) <- Both) d;
    Some out
  end

let eval c point =
  let n = Array.length c in
  let rec loop i =
    if i >= n then true
    else
      match c.(i) with
      | Both -> loop (i + 1)
      | One -> point.(i) && loop (i + 1)
      | Zero -> (not point.(i)) && loop (i + 1)
  in
  loop 0

let raise_var c v =
  let out = Array.copy c in
  out.(v) <- Both;
  out

let set_var c v l =
  let out = Array.copy c in
  out.(v) <- l;
  out

let get (c : t) v = c.(v)

let set (c : t) v l = c.(v) <- l

let copy = Array.copy

let depends_on c v = c.(v) <> Both

let to_packed (c : t) = Cube.of_lits c

let of_packed c = Cube.to_lits c

let pp fmt c = Format.pp_print_string fmt (to_string c)
