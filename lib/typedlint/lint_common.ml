(* Plumbing of the lint ([Typedlint]): the finding type and its text and
   JSON rendering, the OCaml lexer-subset comment/string stripper, and the
   justified-waiver parsing (in-source [lint-waive] markers and the
   LINT_WAIVERS file).  The rules
   themselves run on typedtrees; the stripper only decides which code
   line a standalone waiver comment covers.

   The stripper is a faithful-enough OCaml lexer subset: nested (* *)
   comments — including strings, {| |} / {id| |id} quoted strings and
   char literals *inside* comments, all of which the real lexer also
   balances — double-quoted strings with escapes, quoted strings with
   identifier delimiters, and char literals (so '"' does not open a
   string, in code or in a comment). *)

type finding = {
  rule_id : string;
  sites : string list;
  message : string;
}

let render fs =
  String.concat "\n"
    (List.map
       (fun f ->
         Printf.sprintf "error[%s] sites %s: %s" f.rule_id
           (String.concat "," f.sites)
           f.message)
       fs)

let to_json fs =
  Obs.Json.List
    (List.map
       (fun f ->
         Obs.Json.Obj
           [ ("rule_id", Obs.Json.Str f.rule_id);
             ("severity", Obs.Json.Str "error");
             ( "sites",
               Obs.Json.List (List.map (fun s -> Obs.Json.Str s) f.sites) );
             ("message", Obs.Json.Str f.message) ])
       fs)

let trim = String.trim

(* --- comment / string stripping -------------------------------------------------- *)

type lex_state =
  | Code
  | Comment of int  (* nesting depth *)
  | Str of int      (* a string; payload = comment depth to return to,
                       0 meaning code *)
  | Quoted of int * string
      (* a {id|...|id} quoted string: comment depth to return to, plus the
         delimiter identifier (empty for plain {|...|}) *)

(* A char literal starting at [i] (where [line.[i] = '\'']): returns the
   index just past its closing quote, or None if the shape is not a
   literal (identifier primes, type variables, prose apostrophes).
   Handles 'x', '\n', '\\', '\'', '\"', '\123', '\xHH', '\o123'. *)
let char_literal_end line i =
  let n = String.length line in
  if i + 2 < n && line.[i + 1] <> '\\' && line.[i + 1] <> '\''
     && line.[i + 2] = '\''
  then Some (i + 3)
  else if i + 1 < n && line.[i + 1] = '\\' then begin
    (* escaped form: the closing quote is the first quote at or after
       i+3 within the longest escape ('\o123' -> 7 chars total) *)
    let rec find j =
      if j >= n || j > i + 6 then None
      else if line.[j] = '\'' then Some (j + 1)
      else find (j + 1)
    in
    find (i + 3)
  end
  else None

(* A quoted-string opener at [i] (where [line.[i] = '{']): returns the
   delimiter identifier and the index just past the opening '|'. *)
let quoted_open line i =
  let n = String.length line in
  let rec skip j =
    if j < n
       && (match line.[j] with 'a' .. 'z' | '_' -> true | _ -> false)
    then skip (j + 1)
    else j
  in
  let j = skip (i + 1) in
  if j < n && line.[j] = '|' then Some (String.sub line (i + 1) (j - i - 1), j + 1)
  else None

(* Does the quoted-string closer [|id}] start at [i]
   (where [line.[i] = '|'])? *)
let quoted_close line i id =
  let n = String.length line and k = String.length id in
  i + k + 1 < n
  && String.sub line (i + 1) k = id
  && line.[i + k + 1] = '}'

(* Strip one line under [st]; returns the code-only text (non-code bytes
   replaced by spaces, so column positions survive) and the state at end of
   line. *)
let strip_line st line =
  let n = String.length line in
  let out = Bytes.make n ' ' in
  let rec go st i =
    if i >= n then st
    else
      match st with
      | Code -> (
        if i + 1 < n && line.[i] = '(' && line.[i + 1] = '*' then
          go (Comment 1) (i + 2)
        else if line.[i] = '"' then go (Str 0) (i + 1)
        else if line.[i] = '{' then
          match quoted_open line i with
          | Some (id, next) -> go (Quoted (0, id)) next
          | None ->
            Bytes.set out i line.[i];
            go Code (i + 1)
        else if line.[i] = '\'' then
          match char_literal_end line i with
          | Some next -> go Code next (* blank the payload, keep width *)
          | None ->
            Bytes.set out i line.[i];
            go Code (i + 1)
        else begin
          Bytes.set out i line.[i];
          go Code (i + 1)
        end)
      | Comment d -> (
        if i + 1 < n && line.[i] = '(' && line.[i + 1] = '*' then
          go (Comment (d + 1)) (i + 2)
        else if i + 1 < n && line.[i] = '*' && line.[i + 1] = ')' then
          go (if d = 1 then Code else Comment (d - 1)) (i + 2)
        else if line.[i] = '"' then go (Str d) (i + 1)
        else if line.[i] = '{' then
          match quoted_open line i with
          | Some (id, next) -> go (Quoted (d, id)) next
          | None -> go (Comment d) (i + 1)
        else if line.[i] = '\'' then
          (* the real lexer skips char literals inside comments, so
             (* '"' *) and (* '\"' *) never open a string *)
          match char_literal_end line i with
          | Some next -> go (Comment d) next
          | None -> go (Comment d) (i + 1)
        else go (Comment d) (i + 1))
      | Str back ->
        if line.[i] = '\\' then go st (i + 2)
        else if line.[i] = '"' then
          go (if back = 0 then Code else Comment back) (i + 1)
        else go st (i + 1)
      | Quoted (back, id) ->
        if line.[i] = '|' && quoted_close line i id then
          go
            (if back = 0 then Code else Comment back)
            (i + String.length id + 2)
        else go st (i + 1)
  in
  let st' = go st 0 in
  (Bytes.to_string out, st')

let strip_lines content =
  let raw_lines = String.split_on_char '\n' content in
  let st = ref Code in
  let code =
    Array.of_list
      (List.map
         (fun raw ->
           let code, st' = strip_line !st raw in
           st := st';
           code)
         raw_lines)
  in
  (raw_lines, code)

(* --- waiver parsing -------------------------------------------------------------- *)

let min_reason_len = 10

(* built by concatenation so this very definition does not read as a
   waiver when the lint scans its own source *)
let waiver_marker = "lint-waive" ^ ":"

type line_waiver = {
  lw_line : int;  (* the marker's own line *)
  lw_rule : string;
  lw_covers : int list;  (* lines the waiver suppresses *)
}

(* How far below its marker a standalone waiver comment may reach while
   looking for the code line it covers (a justification that wraps over a
   few comment lines still lands on the site directly below it). *)
let cover_lookahead = 6

(* in-source waivers: each lint-waive comment, the lines it covers, plus
   findings for malformed ones.  A marker sharing its line with code
   covers exactly that line; a standalone comment covers every line down
   to (and including) the first following code line. *)
let line_waivers ~path raw_lines code_lines =
  let waivers = ref [] and probs = ref [] in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let nm = String.length waiver_marker in
      let rec find i =
        if i + nm > String.length line then None
        else if String.sub line i nm = waiver_marker then Some i
        else find (i + 1)
      in
      match find 0 with
      | None -> ()
      | Some at ->
        let rest =
          trim
            (String.sub line
               (at + String.length waiver_marker)
               (String.length line - at - String.length waiver_marker))
        in
        let rule, reason =
          match String.index_opt rest ' ' with
          | None -> (rest, "")
          | Some sp ->
            ( String.sub rest 0 sp,
              trim (String.sub rest sp (String.length rest - sp)) )
        in
        (* strip a leading em-dash / dash / colon separator *)
        let reason =
          let r = reason in
          let drop p =
            String.length r >= String.length p
            && String.sub r 0 (String.length p) = p
          in
          if drop "\xe2\x80\x94" then
            trim (String.sub r 3 (String.length r - 3))
          else if drop "--" then trim (String.sub r 2 (String.length r - 2))
          else if drop "-" || drop ":" then
            trim (String.sub r 1 (String.length r - 1))
          else r
        in
        if String.length reason < min_reason_len then
          probs :=
            { rule_id = "lint/waiver-unjustified";
              sites = [ Printf.sprintf "%s:%d" path lineno ];
              message =
                Printf.sprintf
                  "waiver for %s carries no justification (need >= %d chars \
                   explaining why the site is legitimate)"
                  rule min_reason_len }
            :: !probs
        else begin
          let n = Array.length code_lines in
          let has_code j = j <= n && trim code_lines.(j - 1) <> "" in
          let covers =
            if has_code lineno then [ lineno ]
            else begin
              let rec down j acc =
                if j > n || j > lineno + cover_lookahead then List.rev acc
                else if has_code j then List.rev (j :: acc)
                else down (j + 1) (j :: acc)
              in
              down (lineno + 1) [ lineno ]
            end
          in
          waivers :=
            { lw_line = lineno; lw_rule = rule; lw_covers = covers }
            :: !waivers
        end)
    raw_lines;
  (List.rev !waivers, List.rev !probs)

type waiver = {
  w_rule : string;
  w_path : string;
  w_reason : string;
}

let parse_waivers body =
  let probs = ref [] and ws = ref [] in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let line = trim line in
      if line <> "" && line.[0] <> '#' then begin
        let parts =
          String.split_on_char ' ' line
          |> List.filter (fun s -> s <> "")
        in
        match parts with
        | rule :: path :: (_ :: _ as reason_words)
          when String.length (String.concat " " reason_words)
               >= min_reason_len ->
          ws :=
            { w_rule = rule;
              w_path = path;
              w_reason = String.concat " " reason_words }
            :: !ws
        | _ ->
          probs :=
            { rule_id = "lint/waiver-unjustified";
              sites = [ Printf.sprintf "LINT_WAIVERS:%d" lineno ];
              message =
                Printf.sprintf
                  "expected '<rule-id> <path-substring> <justification >= \
                   %d chars>', got %S"
                  min_reason_len line }
            :: !probs
      end)
    (String.split_on_char '\n' body);
  (List.rev !ws, List.rev !probs)
