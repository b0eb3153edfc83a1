type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- printer ------------------------------------------------------------------------ *)

let escape_into buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let float_str f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.6g" f

let add_str buf s =
  Buffer.add_char buf '"';
  escape_into buf s;
  Buffer.add_char buf '"'

let add_items buf ~open_ ~close ~sep add items =
  Buffer.add_string buf open_;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string buf sep;
      add x)
    items;
  Buffer.add_string buf close

let rec add_compact buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_str f)
  | Str s -> add_str buf s
  | List items ->
    add_items buf ~open_:"[" ~close:"]" ~sep:"," (add_compact buf) items
  | Obj fields ->
    add_items buf ~open_:"{" ~close:"}" ~sep:","
      (fun (k, x) ->
        add_str buf k;
        Buffer.add_char buf ':';
        add_compact buf x)
      fields

let to_string v =
  let buf = Buffer.create 256 in
  add_compact buf v;
  Buffer.contents buf

(* One item per line at [indent + 2]; only object members recurse, so an
   array's elements (the records of a report) each stay on one line. *)
let rec add_layout buf indent v =
  let pad = String.make (indent + 2) ' ' in
  let sep = ",\n" in
  let close c = "\n" ^ String.make indent ' ' ^ c in
  match v with
  | List (_ :: _ as items) ->
    add_items buf ~open_:"[\n" ~close:(close "]") ~sep
      (fun x ->
        Buffer.add_string buf pad;
        add_compact buf x)
      items
  | Obj (_ :: _ as fields) ->
    add_items buf ~open_:"{\n" ~close:(close "}") ~sep
      (fun (k, x) ->
        Buffer.add_string buf pad;
        add_str buf k;
        Buffer.add_string buf ": ";
        add_layout buf (indent + 2) x)
      fields
  | v -> add_compact buf v

let layout v =
  let buf = Buffer.create 4096 in
  add_layout buf 0 v;
  Buffer.contents buf

let write_file path v =
  let oc = open_out_bin path in
  output_string oc (layout v);
  output_char oc '\n';
  close_out oc

(* --- parser ------------------------------------------------------------------------- *)

exception Bad of int * string

let max_depth = 64

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let error msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> error (Printf.sprintf "expected '%c', found '%c'" c c')
    | None -> error (Printf.sprintf "expected '%c', found end of input" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else error ("invalid literal (expected " ^ word ^ ")")
  in
  let utf8_encode buf code =
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then error "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let c = s.[!pos] in
      let d =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
        | _ -> error "bad hex digit in \\u escape"
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then error "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (if !pos >= n then error "unterminated escape";
         match s.[!pos] with
         | '"' -> Buffer.add_char buf '"'; advance ()
         | '\\' -> Buffer.add_char buf '\\'; advance ()
         | '/' -> Buffer.add_char buf '/'; advance ()
         | 'b' -> Buffer.add_char buf '\b'; advance ()
         | 'f' -> Buffer.add_char buf '\012'; advance ()
         | 'n' -> Buffer.add_char buf '\n'; advance ()
         | 'r' -> Buffer.add_char buf '\r'; advance ()
         | 't' -> Buffer.add_char buf '\t'; advance ()
         | 'u' ->
           advance ();
           utf8_encode buf (hex4 ())
         | c -> error (Printf.sprintf "bad escape '\\%c'" c));
        go ()
      | c when Char.code c < 0x20 -> error "raw control character in string"
      | c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then advance ();
    let digits () =
      let saw = ref false in
      while
        !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false
      do
        saw := true;
        advance ()
      done;
      if not !saw then error "malformed number"
    in
    digits ();
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
     | Some ('e' | 'E') ->
       is_float := true;
       advance ();
       (match peek () with Some ('+' | '-') -> advance () | _ -> ());
       digits ()
     | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
  in
  let rec parse_value depth =
    if depth > max_depth then error "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [] in
        let rec elems () =
          items := parse_value (depth + 1) :: !items;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elems ()
          | Some ']' -> advance ()
          | _ -> error "expected ',' or ']' in array"
        in
        elems ();
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          fields := (key, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ()
          | Some '}' -> advance ()
          | _ -> error "expected ',' or '}' in object"
        in
        members ();
        Obj (List.rev !fields)
      end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> error (Printf.sprintf "unexpected character '%c'" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then error "trailing garbage after document";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) ->
    Error (Printf.sprintf "%s at byte %d" msg at)

(* --- accessors ---------------------------------------------------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let mem key conv j = Option.bind (member key j) conv
let mem_str key = mem key (function Str s -> Some s | _ -> None)
let mem_bool key = mem key (function Bool b -> Some b | _ -> None)

let mem_int key =
  mem key (function
    | Int i -> Some i
    | Float f when Float.is_integer f && Float.abs f <= 1e15 ->
      Some (int_of_float f)
    | _ -> None)

let mem_float key =
  mem key (function
    | Float f -> Some f
    | Int i -> Some (float_of_int i)
    | _ -> None)
