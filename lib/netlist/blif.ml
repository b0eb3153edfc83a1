let tokenize_lines text =
  (* Strip comments, join continuation lines, split into token lists. *)
  let raw = String.split_on_char '\n' text in
  let strip_comment line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let rec join acc pending lineno = function
    | [] ->
      let acc = if pending = "" then acc else (lineno, pending) :: acc in
      List.rev acc
    | line :: rest ->
      let line = strip_comment line in
      let trimmed = String.trim line in
      if String.length trimmed > 0 && trimmed.[String.length trimmed - 1] = '\\'
      then
        let chunk = String.sub trimmed 0 (String.length trimmed - 1) in
        join acc (pending ^ chunk ^ " ") lineno rest
      else begin
        let full = pending ^ trimmed in
        let acc = if full = "" then acc else (lineno, full) :: acc in
        join acc "" (lineno + 1) rest
      end
  in
  join [] "" 1 raw
  |> List.map (fun (lineno, line) ->
         ( lineno,
           String.split_on_char ' ' line
           |> List.concat_map (String.split_on_char '\t')
           |> List.filter (fun s -> s <> "") ))
  |> List.filter (fun (_, toks) -> toks <> [])

type pending_names = {
  output_name : string;
  input_names : string list;
  mutable lines : (string * char) list;  (* input part, output value *)
}

let parse_string text =
  let net = Network.create () in
  let lines = tokenize_lines text in
  let declared_outputs = ref [] in
  let pending_logic : pending_names list ref = ref [] in
  let pending_latches = ref [] in
  let current = ref None in
  let fail lineno msg = failwith (Printf.sprintf "blif:%d: %s" lineno msg) in
  (* every signal has one driver: an input, a latch output or a .names *)
  let defined = Hashtbl.create 64 in
  let define lineno name =
    if Hashtbl.mem defined name then fail lineno (name ^ " defined twice");
    Hashtbl.replace defined name ()
  in
  let add_latch lineno input output init =
    define lineno output;
    pending_latches := (input, output, init) :: !pending_latches
  in
  let finish_current () =
    match !current with
    | Some p -> pending_logic := p :: !pending_logic; current := None
    | None -> ()
  in
  List.iter
    (fun (lineno, toks) ->
      match toks with
      | ".model" :: rest ->
        finish_current ();
        (match rest with
         | [ name ] -> Network.set_name_of_model net name
         | [] | _ :: _ -> ())
      | ".inputs" :: names ->
        finish_current ();
        List.iter
          (fun n ->
            define lineno n;
            ignore (Network.add_input net n))
          names
      | ".outputs" :: names ->
        finish_current ();
        List.iter
          (fun n ->
            if List.mem n !declared_outputs then
              fail lineno ("output " ^ n ^ " declared twice");
            declared_outputs := !declared_outputs @ [ n ])
          names
      | ".latch" :: rest ->
        finish_current ();
        (match rest with
         | [ input; output ] ->
           add_latch lineno input output Network.Ix
         | [ input; output; init ] ->
           let init =
             match init with
             | "0" -> Network.I0
             | "1" -> Network.I1
             | "2" | "3" -> Network.Ix
             | _ -> fail lineno ("bad latch init " ^ init)
           in
           add_latch lineno input output init
         | [ input; ttype; _clock; output; init ] when ttype = "re" || ttype = "fe" ->
           let init =
             match init with
             | "0" -> Network.I0
             | "1" -> Network.I1
             | _ -> Network.Ix
           in
           add_latch lineno input output init
         | _ -> fail lineno ".latch expects 2, 3 or 5 arguments")
      | ".names" :: signals ->
        finish_current ();
        (match List.rev signals with
         | output_name :: rev_inputs ->
           define lineno output_name;
           current :=
             Some
               { output_name;
                 input_names = List.rev rev_inputs;
                 lines = [] }
         | [] -> fail lineno ".names needs at least an output")
      | ".end" :: _ -> finish_current ()
      | [ ".exdc" ] -> fail lineno ".exdc not supported"
      | word :: rest when String.length word > 0 && word.[0] <> '.' ->
        (match !current with
         | None -> fail lineno "cover line outside .names"
         | Some p ->
           let width = List.length p.input_names in
           (match rest with
            | [ out ] when String.length out = 1 ->
              if not (String.for_all (fun c -> c = '0' || c = '1' || c = '-') word)
              then
                fail lineno
                  (Printf.sprintf "cover line for %s has a character other \
                                   than 0, 1 or -" p.output_name);
              if String.length word <> width then
                fail lineno
                  (Printf.sprintf
                     "cover line for %s has width %d, .names declares %d \
                      input(s)"
                     p.output_name (String.length word) width);
              p.lines <- (word, out.[0]) :: p.lines
            | [] when width = 0 ->
              if String.length word <> 1 then
                fail lineno
                  (Printf.sprintf
                     "constant cover line for %s must be a single output \
                      value"
                     p.output_name);
              p.lines <- ("", word.[0]) :: p.lines
            | _ -> fail lineno "malformed cover line"))
      | directive :: _ -> fail lineno ("unsupported directive " ^ directive)
      | [] -> ())
    lines;
  finish_current ();
  (* Create placeholder nodes for every defined signal, then fill them in. *)
  let by_name : (string, Network.node) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun n -> Hashtbl.replace by_name n.Network.name n)
    (Network.inputs net);
  let declare name =
    (* temporary constant-0 node; will be turned into logic/latch *)
    Hashtbl.replace by_name name
      (Network.add_logic net ~name (Logic.Cover.empty 0) [])
  in
  List.iter (fun p -> declare p.output_name) !pending_logic;
  List.iter (fun (_, output, _) -> declare output) !pending_latches;
  let find name =
    match Hashtbl.find_opt by_name name with
    | Some n -> n
    | None -> failwith (Printf.sprintf "blif: %s used but never defined" name)
  in
  (* latches *)
  List.iter
    (fun (input, output, init) ->
      let data = find input in
      Network.become_latch net (Hashtbl.find by_name output) init data)
    !pending_latches;
  (* logic nodes *)
  List.iter
    (fun p ->
      let fanins = List.map find p.input_names in
      let n = List.length fanins in
      let on_cubes, off_cubes =
        List.fold_left
          (fun (on, off) (pattern, out) ->
            let pattern = if n = 0 then "" else pattern in
            if String.length pattern <> n then
              failwith
                (Printf.sprintf "blif: cover width mismatch on %s" p.output_name);
            let cube = if n = 0 then Logic.Cube.universe 0 else Logic.Cube.of_string pattern in
            match out with
            | '1' -> (cube :: on, off)
            | '0' -> (on, cube :: off)
            | c -> failwith (Printf.sprintf "blif: bad output value %c" c))
          ([], []) p.lines
      in
      let cover =
        match on_cubes, off_cubes with
        | on, [] -> Logic.Cover.make n on
        | [], off -> Logic.Cover.complement (Logic.Cover.make n off)
        | _ :: _, _ :: _ ->
          failwith
            (Printf.sprintf "blif: mixed-phase cover on %s" p.output_name)
      in
      Network.set_function net (Hashtbl.find by_name p.output_name) cover
        fanins)
    !pending_logic;
  (* outputs *)
  List.iter
    (fun name ->
      match Hashtbl.find_opt by_name name with
      | Some n -> Network.set_output net name n
      | None -> failwith (Printf.sprintf "blif: undriven output %s" name))
    !declared_outputs;
  (* .names lines that read each other have no evaluation order: name the
     loop.  [path] is the open DFS stack, innermost first. *)
  let state = Hashtbl.create 64 in
  let rec visit path n =
    if Network.is_logic n then
      match Hashtbl.find_opt state n.Network.id with
      | Some `Done -> ()
      | Some `Open ->
        let rec loop acc = function
          | m :: rest -> if m == n then m :: acc else loop (m :: acc) rest
          | [] -> acc
        in
        failwith
          (Printf.sprintf "blif: combinational cycle through %s"
             (String.concat ", "
                (List.map (fun m -> m.Network.name) (loop [] path))))
      | None ->
        Hashtbl.replace state n.Network.id `Open;
        List.iter (visit (n :: path)) (Network.fanin_nodes net n);
        Hashtbl.replace state n.Network.id `Done
  in
  List.iter (visit []) (Network.logic_nodes net);
  net

let parse_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  parse_string text

let to_string net =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf ".model %s\n" (Network.model_name net));
  let input_names =
    List.map (fun n -> n.Network.name) (Network.inputs net)
  in
  Buffer.add_string buf (".inputs " ^ String.concat " " input_names ^ "\n");
  let output_names = List.map fst (Network.outputs net) in
  Buffer.add_string buf (".outputs " ^ String.concat " " output_names ^ "\n");
  (* Primary outputs whose BLIF name differs from the driver node get a
     buffer .names entry. *)
  List.iter
    (fun (po_name, driver) ->
      if driver.Network.name <> po_name then
        Buffer.add_string buf
          (Printf.sprintf ".names %s %s\n1 1\n" driver.Network.name po_name))
    (Network.outputs net);
  List.iter
    (fun n ->
      match n.Network.kind with
      | Network.Input -> ()
      | Network.Const b ->
        Buffer.add_string buf (Printf.sprintf ".names %s\n" n.Network.name);
        if b then Buffer.add_string buf "1\n"
      | Network.Latch init ->
        let data = Network.latch_data net n in
        let init_str =
          match init with Network.I0 -> "0" | Network.I1 -> "1" | Network.Ix -> "2"
        in
        Buffer.add_string buf
          (Printf.sprintf ".latch %s %s %s\n" data.Network.name n.Network.name
             init_str)
      | Network.Logic cover ->
        let fanin_names =
          List.map
            (fun f -> f.Network.name)
            (Network.fanin_nodes net n)
        in
        Buffer.add_string buf
          (Printf.sprintf ".names %s %s\n"
             (String.concat " " fanin_names)
             n.Network.name);
        List.iter
          (fun cube ->
            Buffer.add_string buf (Logic.Cube.to_string cube ^ " 1\n"))
          cover.Logic.Cover.cubes)
    (Network.all_nodes net);
  Buffer.add_string buf ".end\n";
  Buffer.contents buf

let write_file path net =
  let oc = open_out path in
  output_string oc (to_string net);
  close_out oc
