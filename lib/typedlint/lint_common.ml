(* Plumbing of the lint ([Typedlint]): the finding type and its text and
   JSON rendering, and the justified-waiver parsing (in-source
   [lint-waive] markers and the LINT_WAIVERS file).  The rules themselves
   run on typedtrees; the compiler's lexer only decides which code line a
   standalone waiver comment covers. *)

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

(* --- code lines ---------------------------------------------------------------- *)

(* [code.(l)] holds when a token of the compiler's own lexer starts on line
   [l] (1-based): comments, docstrings and the inside of string literals
   start none.  Lexing stops at the first error, so a file the lexer
   rejects has no code lines past it. *)
let code_lines content nlines =
  let code = Array.make (nlines + 1) false in
  Lexer.init ();
  Lexer.print_warnings := false;
  Lexer.handle_docstrings := false;
  let lexbuf = Lexing.from_string content in
  let rec go () =
    match Lexer.token lexbuf with
    | Parser.EOF -> ()
    | _ ->
      let l = lexbuf.Lexing.lex_start_p.Lexing.pos_lnum in
      if l <= nlines then code.(l) <- true;
      go ()
    | exception Lexer.Error _ -> ()
  in
  go ();
  code

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
let line_waivers ~path content =
  let raw_lines = String.split_on_char '\n' content in
  let n = List.length raw_lines in
  let code = code_lines content n in
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
          let has_code j = j <= n && code.(j) in
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
