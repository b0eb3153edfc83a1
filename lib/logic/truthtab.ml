(* Dense truth tables: 32 points per [int] word.

   Point [i] lives at bit [i land 31] of word [i lsr 5], so variables 0-4
   index bits inside a word and variables 5 and up select words.  A table
   over [n < 5] variables is one word whose bits at and above [2^n] are
   kept at 0, so whole-word equality, popcount and the bitwise operators
   need no masking. *)

type t = { n : int; w : int array }

let word_vars = Cube.word_vars

let max_vars = 20

let nwords n = if n <= word_vars then 1 else 1 lsl (n - word_vars)

(* The bits of a word that hold points. *)
let valid n = if n >= word_vars then Cube.full_word else (1 lsl (1 lsl n)) - 1

(* Set bits of a 32-bit value. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x5555_5555) in
  let x = (x land 0x3333_3333) + ((x lsr 2) land 0x3333_3333) in
  let x = (x + (x lsr 4)) land 0x0F0F_0F0F in
  (x * 0x0101_0101) lsr 24 land 0xFF

let nvars t = t.n

let get t i = (t.w.(i lsr word_vars) lsr (i land 31)) land 1 = 1

let create n f =
  assert (n <= max_vars);
  let w = Array.make (nwords n) 0 in
  let point = Array.make n false in
  for i = 0 to (1 lsl n) - 1 do
    for v = 0 to n - 1 do
      point.(v) <- i land (1 lsl v) <> 0
    done;
    if f point then
      w.(i lsr word_vars) <- w.(i lsr word_vars) lor (1 lsl (i land 31))
  done;
  { n; w }

(* --- cubes on the word layout -------------------------------------------- *)

type span = { mask : int; base : int; free : int }

let span c =
  let n = Cube.nvars c in
  let base = ref 0 and free = ref 0 in
  for v = word_vars to n - 1 do
    match Cube.get c v with
    | Cube.Both -> free := !free lor (1 lsl (v - word_vars))
    | Cube.One -> base := !base lor (1 lsl (v - word_vars))
    | Cube.Zero -> ()
  done;
  { mask = Cube.word_mask c land valid n; base = !base; free = !free }

(* The words of a span are [base lor s] for every subset [s] of [free];
   [next_subset] steps through them in increasing order from 0 and wraps
   back to 0 after [free] itself. *)
let next_subset free s = (s - free) land free

let span_words sp = 1 lsl popcount sp.free

let rec within_from w mask base free s =
  mask land lnot w.(base lor s) = 0
  && (s = free || within_from w mask base free (next_subset free s))

let within t sp = within_from t.w sp.mask sp.base sp.free 0

let supercube n ~bits ~words_and ~words_or =
  let c = Cube.universe n in
  for v = 0 to n - 1 do
    let one, zero =
      if v < word_vars then
        let p = Cube.word_pattern v in
        (bits land p <> 0, bits land lnot p <> 0)
      else
        let b = 1 lsl (v - word_vars) in
        (words_or land b <> 0, words_and land b = 0)
    in
    if not (one && zero) then Cube.set c v (if one then Cube.One else Cube.Zero)
  done;
  c

let of_cover cover =
  let n = cover.Cover.nvars in
  assert (n <= max_vars);
  let w = Array.make (nwords n) 0 in
  List.iter
    (fun c ->
      let sp = span c in
      let rec loop s =
        let i = sp.base lor s in
        w.(i) <- w.(i) lor sp.mask;
        if s <> sp.free then loop (next_subset sp.free s)
      in
      loop 0)
    cover.Cover.cubes;
  { n; w }

let words t = t.w

(* --- whole-table operations ---------------------------------------------- *)

let point_of_index n i = Array.init n (fun v -> i land (1 lsl v) <> 0)

let to_cover t =
  let cubes = ref [] in
  for i = (1 lsl t.n) - 1 downto 0 do
    if get t i then cubes := Cube.minterm t.n (point_of_index t.n i) :: !cubes
  done;
  Cover.make t.n !cubes

let const n value =
  assert (n <= max_vars);
  { n; w = Array.make (nwords n) (if value then valid n else 0) }

let var n v =
  assert (v < n && n <= max_vars);
  let w =
    if v < word_vars then Array.make (nwords n) (Cube.word_pattern v land valid n)
    else
      Array.init (nwords n) (fun i ->
          if i land (1 lsl (v - word_vars)) <> 0 then valid n else 0)
  in
  { n; w }

let eval t point =
  let idx = ref 0 in
  for v = 0 to t.n - 1 do
    if point.(v) then idx := !idx lor (1 lsl v)
  done;
  get t !idx

let equal a b = a.n = b.n && a.w = b.w

let count_ones t = Array.fold_left (fun acc x -> acc + popcount x) 0 t.w

let map2 op a b =
  assert (a.n = b.n);
  { a with w = Array.map2 op a.w b.w }

let band = map2 ( land )
let bor = map2 ( lor )
let bxor = map2 ( lxor )

let bnot a =
  let valid = valid a.n in
  { a with w = Array.map (fun x -> lnot x land valid) a.w }

(* Both halves of the table take the [value] half's bits. *)
let cofactor t v value =
  assert (v < t.n);
  if v < word_vars then begin
    let sh = 1 lsl v and p = Cube.word_pattern v land valid t.n in
    let half x =
      if value then
        let x = x land p in
        x lor (x lsr sh)
      else
        let x = x land lnot p land valid t.n in
        x lor (x lsl sh)
    in
    { t with w = Array.map half t.w }
  end
  else begin
    let b = 1 lsl (v - word_vars) in
    { t with
      w =
        Array.init (Array.length t.w) (fun i ->
            t.w.(if value then i lor b else i land lnot b)) }
  end

let depends_on t v = not (equal (cofactor t v true) (cofactor t v false))
