type term = {
  input : Logic.Cube.t;
  current : string;
  next : string;
  output : string;
}

type t = {
  ninputs : int;
  noutputs : int;
  states : string list;
  reset : string;
  terms : term list;
}

let parse_string text =
  let lines = String.split_on_char '\n' text in
  let ninputs = ref (-1) and noutputs = ref (-1) in
  let reset = ref None in
  let terms = ref [] in
  let states = ref [] in
  let note_state s = if not (List.mem s !states) then states := s :: !states in
  List.iteri
    (fun lineno line ->
      let fail msg = failwith (Printf.sprintf "kiss:%d: %s" (lineno + 1) msg) in
      let line =
        match String.index_opt line '#' with
        | Some i -> String.sub line 0 i
        | None -> line
      in
      let tokens =
        String.split_on_char ' ' line
        |> List.concat_map (String.split_on_char '\t')
        |> List.filter (fun s -> s <> "")
      in
      match tokens with
      | [] -> ()
      | ".i" :: [ n ] -> ninputs := int_of_string n
      | ".o" :: [ n ] -> noutputs := int_of_string n
      | ".p" :: _ | ".s" :: _ -> () (* verified after parsing *)
      | ".r" :: [ s ] -> reset := Some s
      | ".e" :: _ | ".end" :: _ -> ()
      | [ input; current; next; output ] ->
        if !ninputs < 0 || !noutputs < 0 then
          fail "transition before .i/.o headers";
        if String.length input <> !ninputs then fail "input cube width";
        if String.length output <> !noutputs then fail "output width";
        String.iter
          (fun c -> if c <> '0' && c <> '1' && c <> '-' then fail "bad output bit")
          output;
        let cube =
          try Logic.Cube.of_string input
          with Invalid_argument m -> fail m
        in
        note_state current;
        note_state next;
        terms := { input = cube; current; next; output } :: !terms
      | w :: _ -> fail ("unexpected token " ^ w))
    lines;
  if !ninputs < 0 || !noutputs < 0 then failwith "kiss: missing .i/.o";
  let terms = List.rev !terms in
  let states = List.rev !states in
  let reset =
    match !reset, states with
    | Some r, _ ->
      if not (List.mem r states) then failwith "kiss: unknown reset state";
      r
    | None, first :: _ -> first
    | None, [] -> failwith "kiss: no transitions"
  in
  { ninputs = !ninputs; noutputs = !noutputs; states; reset; terms }

let to_string t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf ".i %d\n.o %d\n" t.ninputs t.noutputs);
  Buffer.add_string buf (Printf.sprintf ".p %d\n" (List.length t.terms));
  Buffer.add_string buf (Printf.sprintf ".s %d\n" (List.length t.states));
  Buffer.add_string buf (Printf.sprintf ".r %s\n" t.reset);
  List.iter
    (fun term ->
      Buffer.add_string buf
        (Printf.sprintf "%s %s %s %s\n"
           (Logic.Cube.to_string term.input)
           term.current term.next term.output))
    t.terms;
  Buffer.add_string buf ".e\n";
  Buffer.contents buf

let write_file path t =
  let oc = open_out path in
  output_string oc (to_string t);
  close_out oc

let to_fsm ~name t =
  (* reset state first so the all-zeros initial code selects it *)
  let ordered = t.reset :: List.filter (fun s -> s <> t.reset) t.states in
  let index s =
    let rec find i = function
      | [] -> failwith ("kiss: unknown state " ^ s)
      | x :: rest -> if x = s then i else find (i + 1) rest
    in
    find 0 ordered
  in
  let transitions =
    List.map
      (fun term ->
        { Fsm.from_state = index term.current;
          input_cube = term.input;
          to_state = index term.next;
          outputs =
            Array.init (String.length term.output) (fun i ->
                term.output.[i] = '1') })
      t.terms
  in
  { Fsm.name;
    nstates = List.length ordered;
    ninputs = t.ninputs;
    noutputs = t.noutputs;
    transitions }

let of_fsm (m : Fsm.t) =
  let state i = Printf.sprintf "st%d" i in
  let terms =
    List.map
      (fun tr ->
        { input = tr.Fsm.input_cube;
          current = state tr.Fsm.from_state;
          next = state tr.Fsm.to_state;
          output =
            String.init (Array.length tr.Fsm.outputs) (fun i ->
                if tr.Fsm.outputs.(i) then '1' else '0') })
      m.Fsm.transitions
  in
  { ninputs = m.Fsm.ninputs;
    noutputs = m.Fsm.noutputs;
    states = List.init m.Fsm.nstates state;
    reset = state 0;
    terms }

let to_network ~name t = Fsm.to_network (to_fsm ~name t)
