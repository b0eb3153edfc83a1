(* Bit-packed cubes: 2 bits per literal, 31 literals per word.

   Field encoding (espresso positional notation):
     Zero -> 01   (only the 0 value of the variable is allowed)
     One  -> 10   (only the 1 value)
     Both -> 11   (variable absent from the product)
   00 never appears in a well-formed cube; it marks an empty intersection.

   Invariants:
   - [w] has [(n + 30) / 31] words;
   - fields beyond position [n] in the last word are kept at 11, so every
     word-parallel operation (AND, OR, subset tests) treats the tail as
     "absent" without masking. *)

type lit = Zero | One | Both

type t = { n : int; w : int array }

let vars_per_word = 31

(* 01 repeated in every field: bits 0, 2, 4, ... 60. *)
let mask01 = 0x1555_5555_5555_5555

(* 11 in every field = the 62 low bits = max_int on 64-bit OCaml. *)
let all_both = (mask01 lsl 1) lor mask01

let nwords n = (n + vars_per_word - 1) / vars_per_word

let code_of_lit = function Zero -> 1 | One -> 2 | Both -> 3

let lit_of_code = function 1 -> Zero | 2 -> One | _ -> Both

let universe n = { n; w = Array.make (nwords n) all_both }

let nvars c = c.n

let get c v =
  lit_of_code ((c.w.(v / vars_per_word) lsr (2 * (v mod vars_per_word))) land 3)

let set c v l =
  let i = v / vars_per_word and s = 2 * (v mod vars_per_word) in
  c.w.(i) <- c.w.(i) land lnot (3 lsl s) lor (code_of_lit l lsl s)

let copy c = { c with w = Array.copy c.w }

let of_lits lits =
  let c = universe (Array.length lits) in
  Array.iteri (fun v l -> if l <> Both then set c v l) lits;
  c

let to_lits c = Array.init c.n (get c)

let iteri f c =
  for v = 0 to c.n - 1 do
    f v (get c v)
  done

let of_string s =
  let c = universe (String.length s) in
  String.iteri
    (fun v ch ->
      match ch with
      | '0' -> set c v Zero
      | '1' -> set c v One
      | '-' -> ()
      | _ -> invalid_arg (Printf.sprintf "Cube.of_string: bad character %c" ch))
    s;
  c

let to_string c =
  String.init c.n (fun v ->
      match get c v with Zero -> '0' | One -> '1' | Both -> '-')

let minterm n point =
  assert (Array.length point = n);
  let c = universe n in
  for v = 0 to n - 1 do
    set c v (if point.(v) then One else Zero)
  done;
  c

let popcount x =
  let x = x - ((x lsr 1) land 0x5555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0F0F_0F0F_0F0F_0F0F in
  (x * 0x0101_0101_0101_0101) lsr 56

(* Index of the lowest set bit; [x] must be non-zero. *)
let ntz x = popcount (x land (-x) - 1)

let lit_count c =
  (* Fields holding 11 (Both) across all words, including the constant-11
     tail, leave exactly the bound literals. *)
  let both = ref 0 in
  for i = 0 to Array.length c.w - 1 do
    let x = c.w.(i) in
    both := !both + popcount (x land (x lsr 1) land mask01)
  done;
  Array.length c.w * vars_per_word - !both

let is_minterm c = lit_count c = c.n

let equal a b =
  a.n = b.n
  &&
  let rec loop i = i < 0 || (a.w.(i) = b.w.(i) && loop (i - 1)) in
  loop (Array.length a.w - 1)

(* Same order as the legacy element-wise [Stdlib.compare] on lit arrays:
   lexicographic by variable with Zero < One < Both (the field codes 1 < 2 < 3
   preserve that rank). *)
let compare a b =
  if a.n <> b.n then Stdlib.compare a.n b.n
  else begin
    let words = Array.length a.w in
    let rec loop i =
      if i >= words then 0
      else if a.w.(i) = b.w.(i) then loop (i + 1)
      else begin
        let s = ntz (a.w.(i) lxor b.w.(i)) land lnot 1 in
        Stdlib.compare ((a.w.(i) lsr s) land 3) ((b.w.(i) lsr s) land 3)
      end
    in
    loop 0
  end

let contains a b =
  a.n = b.n
  &&
  (* [a] contains [b] iff every allowed value of [b] is allowed by [a]. *)
  let rec loop i = i < 0 || (b.w.(i) land lnot a.w.(i) = 0 && loop (i - 1)) in
  loop (Array.length a.w - 1)

let intersects a b =
  let rec loop i =
    i < 0
    ||
    let x = a.w.(i) land b.w.(i) in
    (x lor (x lsr 1)) land mask01 = mask01 && loop (i - 1)
  in
  loop (Array.length a.w - 1)

let intersect a b =
  if intersects a b then
    Some { n = a.n; w = Array.init (Array.length a.w) (fun i -> a.w.(i) land b.w.(i)) }
  else None

let distance a b =
  let d = ref 0 in
  for i = 0 to Array.length a.w - 1 do
    let x = a.w.(i) land b.w.(i) in
    d := !d + popcount (lnot (x lor (x lsr 1)) land mask01)
  done;
  !d

let consensus a b =
  if distance a b <> 1 then None
  else begin
    let out =
      { n = a.n;
        w = Array.init (Array.length a.w) (fun i -> a.w.(i) land b.w.(i)) }
    in
    (* raise the single conflicting variable *)
    let rec fix i =
      let x = out.w.(i) in
      let empty = lnot (x lor (x lsr 1)) land mask01 in
      if empty = 0 then fix (i + 1)
      else out.w.(i) <- x lor (empty lor (empty lsl 1))
    in
    fix 0;
    Some out
  end

let supercube a b =
  { n = a.n; w = Array.init (Array.length a.w) (fun i -> a.w.(i) lor b.w.(i)) }

let cofactor c v value =
  assert (value <> Both);
  let i = v / vars_per_word and s = 2 * (v mod vars_per_word) in
  if (c.w.(i) lsr s) land code_of_lit value = 0 then None
  else begin
    let out = copy c in
    set out v Both;
    Some out
  end

(* Cofactor of [c] against a whole cube: [None] when disjoint, otherwise [c]
   with every variable bound by [d] raised.  One OR per word. *)
let cube_cofactor c d =
  if not (intersects c d) then None
  else
    Some
      { n = c.n;
        w =
          Array.init (Array.length c.w) (fun i ->
              let bound = lnot (d.w.(i) land (d.w.(i) lsr 1)) land mask01 in
              c.w.(i) lor (bound lor (bound lsl 1))) }

let eval c point =
  let rec loop v =
    v >= c.n
    ||
    let f = (c.w.(v / vars_per_word) lsr (2 * (v mod vars_per_word))) land 3 in
    (f = 3 || (f = 2) = point.(v)) && loop (v + 1)
  in
  loop 0

let raise_var c v =
  let out = copy c in
  set out v Both;
  out

let set_var c v l =
  let out = copy c in
  set out v l;
  out

let depends_on c v =
  (c.w.(v / vars_per_word) lsr (2 * (v mod vars_per_word))) land 3 <> 3

(* --- points of the first five variables ------------------------------------ *)

(* The 32 points of variables 0-4: point [i] sets variable [v] to bit [v] of
   [i], and [pattern.(v)] holds the points with variable [v] at 1.  The same
   layout as one word of a [Truthtab]. *)
let word_vars = 5

let pattern = [| 0xAAAA_AAAA; 0xCCCC_CCCC; 0xF0F0_F0F0; 0xFF00_FF00; 0xFFFF_0000 |]

let word_pattern v = pattern.(v)

let full_word = 0xFFFF_FFFF

(* [masks.(x)]: the points allowed by the five fields packed in [x].  The
   table over fields [0..v] extends the one over [0..v-1] by field [v]'s
   four values (00 allows no point). *)
let masks =
  let extend prev v =
    let p = pattern.(v) in
    let field = [| 0; lnot p land full_word; p; full_word |] in
    let low = Array.length prev - 1 in
    Array.init (4 * Array.length prev) (fun x ->
        prev.(x land low) land field.(x lsr (2 * v)))
  in
  let rec build t v = if v = word_vars then t else build (extend t v) (v + 1) in
  build [| full_word |] 0

(* Fields past [n] hold 11, so a narrow cube's points repeat across the word
   as if it did not depend on variables [n] to 4.  A 0-variable cube has no
   word at all: it is the universe. *)
let word_mask c =
  if Array.length c.w = 0 then full_word
  else masks.(c.w.(0) land (Array.length masks - 1))

(* OR-fold of the words: wordwise subset implies signature subset, so
   [contains a b] requires [signature b land lnot (signature a) = 0] — a
   one-word prefilter for cover containment sweeps. *)
let signature c = Array.fold_left ( lor ) 0 c.w

let pp fmt c = Format.pp_print_string fmt (to_string c)
