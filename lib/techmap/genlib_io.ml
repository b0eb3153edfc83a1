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
     | c -> failwith (Printf.sprintf "genlib: bad character %c in expression" c));
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
       | _ -> failwith "genlib: missing )")
    | Some (Tident "CONST0") -> advance (); Const false
    | Some (Tident "CONST1") -> advance (); Const true
    | Some (Tident name) -> advance (); Var name
    | Some (Tstar | Tplus | Trparen) | None ->
      failwith "genlib: expected a factor"
  in
  let e = expr () in
  if !stream <> [] then failwith "genlib: trailing tokens in expression";
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
    | Const _ -> failwith "genlib: constant gate functions are not mappable"
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
  if ninputs = 0 then failwith ("genlib: gate " ^ name ^ " has no inputs");
  if ninputs > 6 then failwith ("genlib: gate " ^ name ^ " has too many inputs");
  let var_index = List.mapi (fun i v -> (v, i)) vars in
  let tt =
    Logic.Truthtab.create ninputs (fun point ->
        eval_expr (List.map (fun (v, i) -> (v, point.(i))) var_index) e)
  in
  let cover = Logic.Minimize.minimize (Logic.Truthtab.to_cover tt) in
  let pattern = pattern_of_expr var_index e in
  let derived = Genlib.pattern_cover ninputs pattern in
  if not (Logic.Cover.equivalent derived cover) then
    failwith ("genlib: internal pattern mismatch for gate " ^ name);
  let delay = List.fold_left max 0.0 pin_delays in
  let delay = if delay = 0.0 then 1.0 else delay in
  { Genlib.gate_name = name; area; delay; ninputs; cover; pattern }

let parse_string ?(name = "genlib") text =
  (* Join the text and split on the GATE keyword so a gate's PIN lines stay
     with it regardless of line breaks. *)
  let no_comments =
    String.split_on_char '\n' text
    |> List.map (fun line ->
           match String.index_opt line '#' with
           | Some i -> String.sub line 0 i
           | None -> line)
    |> String.concat "\n"
  in
  let chunks =
    (* split at "GATE" keywords on token boundaries; text before the first
       keyword is dropped (headers/blank space) *)
    let word = "GATE" in
    let n = String.length no_comments and w = String.length word in
    let is_boundary i =
      i < 0 || i >= n
      || (match no_comments.[i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    in
    let starts = ref [] in
    for i = 0 to n - w do
      if String.sub no_comments i w = word && is_boundary (i - 1)
         && is_boundary (i + w)
      then starts := i :: !starts
    done;
    let starts = List.rev !starts in
    let rec cut = function
      | [] -> []
      | [ s ] -> [ String.sub no_comments (s + w) (n - s - w) ]
      | s :: (s2 :: _ as rest) ->
        String.sub no_comments (s + w) (s2 - s - w) :: cut rest
    in
    cut starts
  in
  let gates =
    List.filter_map
      (fun chunk ->
        let chunk = String.trim chunk in
        if chunk = "" then None
        else begin
          (* NAME AREA OUT=EXPR ; PIN ... *)
          match String.index_opt chunk '=' with
          | None -> failwith "genlib: GATE line without '='"
          | Some eq ->
            let semi =
              match String.index_from_opt chunk eq ';' with
              | Some i -> i
              | None -> failwith "genlib: GATE expression missing ';'"
            in
            let head = String.sub chunk 0 eq in
            let head_tokens =
              String.split_on_char ' ' head
              |> List.concat_map (String.split_on_char '\t')
              |> List.concat_map (String.split_on_char '\n')
              |> List.filter (fun s -> s <> "")
            in
            let gate_name, area =
              match head_tokens with
              | [ n; a; _out ] -> (n, float_of_string a)
              | _ -> failwith "genlib: malformed GATE header"
            in
            let expr_text = String.sub chunk (eq + 1) (semi - eq - 1) in
            (* PIN lines: capture block delays (fields 5 and 7 after PIN) *)
            let rest = String.sub chunk (semi + 1) (String.length chunk - semi - 1) in
            let pin_delays =
              String.split_on_char '\n' rest
              |> List.concat_map (fun line ->
                     let toks =
                       String.split_on_char ' ' line
                       |> List.concat_map (String.split_on_char '\t')
                       |> List.filter (fun s -> s <> "")
                     in
                     match toks with
                     | "PIN" :: _ :: _ :: _ :: _ :: rise :: _ :: fall :: _ ->
                       [ float_of_string rise; float_of_string fall ]
                     | "PIN" :: _ -> failwith "genlib: malformed PIN line"
                     | _ -> [])
            in
            Some (parse_gate_body ~name:gate_name ~area ~expr_text ~pin_delays)
        end)
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
      Buffer.add_string buf
        (Printf.sprintf "GATE %s %.2f O=%s;\n  PIN * INV 1 999 %.2f 0.0 %.2f 0.0\n"
           g.Genlib.gate_name g.Genlib.area
           (expr_string_of_cover g.Genlib.cover)
           g.Genlib.delay g.Genlib.delay))
    lib.Genlib.gates;
  Buffer.contents buf
