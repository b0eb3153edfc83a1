(* --- expression AST and parser ------------------------------------------------- *)

type expr =
  | Const of bool
  | Var of string
  | Not of expr
  | And of expr * expr
  | Or of expr * expr

type token =
  | Tident of string
  | Tbang
  | Tstar
  | Tplus
  | Tlparen
  | Trparen

let tokenize s =
  let tokens = ref [] in
  let i = ref 0 in
  let n = String.length s in
  while !i < n do
    (match s.[!i] with
     | ' ' | '\t' -> ()
     | '!' -> tokens := Tbang :: !tokens
     | '*' -> tokens := Tstar :: !tokens
     | '+' -> tokens := Tplus :: !tokens
     | '(' -> tokens := Tlparen :: !tokens
     | ')' -> tokens := Trparen :: !tokens
     | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' ->
       let start = !i in
       while
         !i + 1 < n
         && (match s.[!i + 1] with
             | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
             | _ -> false)
       do
         incr i
       done;
       tokens := Tident (String.sub s start (!i - start + 1)) :: !tokens
     | c -> failwith (Printf.sprintf "bad character %c in expression" c));
    incr i
  done;
  List.rev !tokens

(* Grammar: expr is a sum of terms; a term is a product of factors joined by
   star or by juxtaposition (some genlib dialects write [ab] for [a*b]);
   a factor is a negation, a parenthesized expr, or an identifier. *)
let parse_expr tokens =
  let stream = ref tokens in
  let peek () = match !stream with [] -> None | t :: _ -> Some t in
  let advance () = match !stream with [] -> () | _ :: rest -> stream := rest in
  let rec expr () =
    let left = term () in
    match peek () with
    | Some Tplus ->
      advance ();
      Or (left, expr ())
    | Some (Tident _ | Tbang | Tstar | Tlparen | Trparen) | None -> left
  and term () =
    let left = factor () in
    match peek () with
    | Some Tstar ->
      advance ();
      And (left, term ())
    | Some (Tident _ | Tbang | Tlparen) ->
      (* juxtaposition *)
      And (left, term ())
    | Some (Tplus | Trparen) | None -> left
  and factor () =
    match peek () with
    | Some Tbang ->
      advance ();
      Not (factor ())
    | Some Tlparen ->
      advance ();
      let e = expr () in
      (match peek () with
       | Some Trparen -> advance (); e
       | _ -> failwith "missing )")
    | Some (Tident "CONST0") -> advance (); Const false
    | Some (Tident "CONST1") -> advance (); Const true
    | Some (Tident name) -> advance (); Var name
    | Some (Tstar | Tplus | Trparen) | None ->
      failwith "expected a factor"
  in
  let e = expr () in
  if !stream <> [] then failwith "trailing tokens in expression";
  e

(* Input pins are ordered alphabetically (the format carries no pin order;
   alphabetical ordering makes printing and re-parsing stable). *)
let rec vars_of acc = function
  | Const _ -> acc
  | Var v -> if List.mem v acc then acc else v :: acc
  | Not e -> vars_of acc e
  | And (a, b) | Or (a, b) -> vars_of (vars_of acc a) b

let sorted_vars e = List.sort compare (vars_of [] e)

let rec eval_expr env = function
  | Const b -> b
  | Var v -> List.assoc v env
  | Not e -> not (eval_expr env e)
  | And (a, b) -> eval_expr env a && eval_expr env b
  | Or (a, b) -> eval_expr env a || eval_expr env b

(* --- pattern derivation ---------------------------------------------------------- *)

(* Build a NAND2/INV pattern with polarity tracking so no useless double
   inverters appear; [Inv (Inv p)] would never match a subject graph. *)
let pattern_of_expr var_index e =
  let rec go = function
    (* returns (pattern, inverted) *)
    | Const _ -> failwith "constant gate functions are not mappable"
    | Var v -> (Genlib.Leaf (List.assoc v var_index), false)
    | Not e ->
      let p, inv = go e in
      (p, not inv)
    | And (a, b) ->
      let pa = positive (go a) and pb = positive (go b) in
      (Genlib.Nand (pa, pb), true)
    | Or (a, b) ->
      let pa = negative (go a) and pb = negative (go b) in
      (Genlib.Nand (pa, pb), false)
  and positive (p, inv) = if inv then Genlib.Inv p else p
  and negative (p, inv) = if inv then p else Genlib.Inv p in
  positive (go e)

(* --- gate lines ------------------------------------------------------------------- *)

let parse_gate_body ~name ~area ~expr_text ~pin_delays =
  let e = parse_expr (tokenize expr_text) in
  let vars = sorted_vars e in
  let ninputs = List.length vars in
  if ninputs = 0 then failwith ("gate " ^ name ^ " has no inputs");
  if ninputs > 6 then failwith ("gate " ^ name ^ " has too many inputs");
  let var_index = List.mapi (fun i v -> (v, i)) vars in
  let tt =
    Logic.Truthtab.create ninputs (fun point ->
        eval_expr (List.map (fun (v, i) -> (v, point.(i))) var_index) e)
  in
  let cover = Logic.Minimize.minimize (Logic.Truthtab.to_cover tt) in
  let pattern = pattern_of_expr var_index e in
  let derived = Genlib.pattern_cover ninputs pattern in
  if not (Logic.Cover.equivalent derived cover) then
    failwith ("internal pattern mismatch for gate " ^ name);
  let delay = List.fold_left max 0 pin_delays in
  let delay = if delay = 0 then Netlist.Delay.unit else delay in
  { Genlib.gate_name = name; area; delay; ninputs; cover; pattern }

let words s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.concat_map (String.split_on_char '\n')
  |> List.concat_map (String.split_on_char '\r')
  |> List.filter (fun w -> w <> "")

let parse_string ?(name = "genlib") text =
  (* Blank out comments (keeping every line break, so offsets keep their
     line numbers) and split on the GATE keyword so a gate's PIN lines stay
     with it regardless of line breaks. *)
  let text =
    String.split_on_char '\n' text
    |> List.map (fun line ->
           match String.index_opt line '#' with
           | Some i -> String.sub line 0 i
           | None -> line)
    |> String.concat "\n"
  in
  let n = String.length text in
  (* 1-based line of offset [i]; the parser asks in increasing order *)
  let pos = ref 0 and line = ref 1 in
  let line_of i =
    if i < !pos then begin pos := 0; line := 1 end;
    while !pos < i do
      if text.[!pos] = '\n' then incr line;
      incr pos
    done;
    !line
  in
  let fail lineno msg = failwith (Printf.sprintf "genlib:%d: %s" lineno msg) in
  let chunks =
    (* (offset, text) after each GATE keyword on token boundaries; text
       before the first keyword is dropped (headers/blank space) *)
    let word = "GATE" in
    let w = String.length word in
    let is_boundary i =
      i < 0 || i >= n
      || (match text.[i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    in
    let starts = ref [] in
    for i = n - w downto 0 do
      if String.sub text i w = word && is_boundary (i - 1) && is_boundary (i + w)
      then starts := (i + w) :: !starts
    done;
    let rec cut = function
      | [] -> []
      | [ s ] -> [ (s, String.sub text s (n - s)) ]
      | s :: (s2 :: _ as rest) -> (s, String.sub text s (s2 - w - s)) :: cut rest
    in
    cut !starts
  in
  let gate (offset, chunk) =
    let gate_line = line_of offset in
    (* NAME AREA OUT=EXPR ; PIN ... *)
    let eq =
      match String.index_opt chunk '=' with
      | Some i -> i
      | None -> fail gate_line "GATE line without '='"
    in
    let semi =
      match String.index_from_opt chunk eq ';' with
      | Some i -> i
      | None -> fail gate_line "GATE expression missing ';'"
    in
    let gate_name, area =
      match words (String.sub chunk 0 eq) with
      | [ n; a; _out ] ->
        (match float_of_string_opt a with
         | Some x when Float.is_finite x && x >= 0.0 -> (n, x)
         | Some _ | None -> fail gate_line ("bad area " ^ a))
      | _ -> fail gate_line "malformed GATE header"
    in
    let expr_text = String.sub chunk (eq + 1) (semi - eq - 1) in
    (* PIN lines: capture block delays (fields 5 and 7 after PIN) *)
    let first_pin_line = line_of (offset + semi + 1) in
    let pin_delays =
      String.sub chunk (semi + 1) (String.length chunk - semi - 1)
      |> String.split_on_char '\n'
      |> List.mapi (fun i l -> (first_pin_line + i, l))
      |> List.concat_map (fun (lineno, l) ->
             let delay text =
               match Netlist.Delay.of_string text with
               | Some d -> d
               | None -> fail lineno ("bad delay " ^ text)
             in
             match words l with
             | "PIN" :: _ :: _ :: _ :: _ :: rise :: _ :: fall :: _ ->
               [ delay rise; delay fall ]
             | "PIN" :: _ -> fail lineno "malformed PIN line"
             | _ -> [])
    in
    try parse_gate_body ~name:gate_name ~area ~expr_text ~pin_delays
    with Failure msg -> fail gate_line msg
  in
  let gates =
    List.filter_map
      (fun ((_, chunk) as c) ->
        if String.trim chunk = "" then None else Some (gate c))
      chunks
  in
  if gates = [] then failwith "genlib: no gates";
  { Genlib.lib_name = name; gates;
    latch_area = Genlib.mcnc_lite.Genlib.latch_area }

let parse_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  parse_string ~name:(Filename.basename path) text

(* --- printing ---------------------------------------------------------------------- *)

let expr_string_of_cover cover =
  let factored = Logic.Factor.good_factor cover in
  let var i = String.make 1 (Char.chr (Char.code 'a' + i)) in
  let rec print = function
    | Logic.Factor.Const true -> "CONST1"
    | Logic.Factor.Const false -> "CONST0"
    | Logic.Factor.Lit (v, true) -> var v
    | Logic.Factor.Lit (v, false) -> "!" ^ var v
    | Logic.Factor.And es -> String.concat "*" (List.map atom es)
    | Logic.Factor.Or es -> String.concat "+" (List.map print es)
  and atom e =
    match e with
    | Logic.Factor.Or (_ :: _ :: _) -> "(" ^ print e ^ ")"
    | Logic.Factor.Or _ | Logic.Factor.Const _ | Logic.Factor.Lit _
    | Logic.Factor.And _ ->
      print e
  in
  print factored

let to_string lib =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "# library %s\n" lib.Genlib.lib_name);
  List.iter
    (fun g ->
      let delay = Netlist.Delay.to_string g.Genlib.delay in
      Buffer.add_string buf
        (Printf.sprintf "GATE %s %.2f O=%s;\n  PIN * INV 1 999 %s 0.0 %s 0.0\n"
           g.Genlib.gate_name g.Genlib.area
           (expr_string_of_cover g.Genlib.cover)
           delay delay))
    lib.Genlib.gates;
  Buffer.contents buf
