module N = Netlist.Network

type profile = {
  npi : int;
  npo : int;
  nlatch : int;
  ngates : int;
  max_fanin : int;
  feedback : bool;
  stem_bias : float;
}

let default_profile =
  { npi = 4;
    npo = 2;
    nlatch = 3;
    ngates = 12;
    max_fanin = 3;
    feedback = true;
    stem_bias = 0.5 }

(* Random non-constant cover over [k] fanins: 1-3 random cubes, each with at
   least one literal; reject covers that are constant. *)
let rec random_cover rng k =
  let ncubes = 1 + Random.State.int rng 3 in
  let cube () =
    let c = Logic.Cube.universe k in
    let nlits = 1 + Random.State.int rng k in
    for _ = 1 to nlits do
      let v = Random.State.int rng k in
      Logic.Cube.set c v
        (if Random.State.bool rng then Logic.Cube.One else Logic.Cube.Zero)
    done;
    c
  in
  let cover = Logic.Cover.make k (List.init ncubes (fun _ -> cube ())) in
  if Logic.Cover.is_tautology cover || Logic.Cover.is_empty cover then
    random_cover rng k
  else cover

let pick rng arr = arr.(Random.State.int rng (Array.length arr))

let random_sequential ~seed profile =
  (* The PIs seed everything: the latches' placeholder data, the first
     gate's sources and, with no gates, the outputs. *)
  if profile.npi < 1 then
    invalid_arg "Generators.random_sequential: npi must be at least 1";
  (* With [stem_bias >= 1] every fanin draw is a latch, so a gate that wants
     more distinct fanins than there are latches redraws forever.  The
     newest gate has the most sources; if it cannot want that many, no gate
     can. *)
  if
    profile.stem_bias >= 1.0
    && profile.nlatch > 0
    && profile.ngates > 0
    && min (max 2 profile.max_fanin)
         (profile.npi + profile.nlatch + profile.ngates - 1)
       > profile.nlatch
  then
    invalid_arg
      "Generators.random_sequential: stem_bias >= 1 needs at least \
       max_fanin latches";
  let rng = Random.State.make [| seed |] in
  let net = N.create ~name:(Printf.sprintf "rand%d" seed) () in
  let pis =
    Array.init profile.npi (fun i ->
        N.add_input net (Printf.sprintf "in%d" i))
  in
  (* Latches first, with placeholder data (a PI), rewired after gates exist;
     this permits FSM-style feedback. *)
  let placeholder = pis.(0) in
  let latches =
    Array.init profile.nlatch (fun i ->
        N.add_latch net
          ~name:(Printf.sprintf "r%d" i)
          (if Random.State.bool rng then N.I1 else N.I0)
          placeholder)
  in
  let npi = Array.length pis and nlatch = Array.length latches in
  (* Gates in layers: each gate draws fanins from earlier gates, PIs and
     latch outputs.  stem_bias resamples a fanin to be a latch output, giving
     latches multiple fanouts.  Source [j] is a PI, then a latch, then a
     gate, newest first: [gates.(i - 1)] is source [npi + nlatch]. *)
  let gates = Array.make profile.ngates placeholder in
  for i = 0 to profile.ngates - 1 do
    let nsources = npi + nlatch + i in
    let source j =
      if j < npi then pis.(j)
      else if j < npi + nlatch then latches.(j - npi)
      else gates.(i - 1 - (j - npi - nlatch))
    in
    let k = 2 + Random.State.int rng (max 1 (profile.max_fanin - 1)) in
    let fanin () =
      if nlatch > 0 && Random.State.float rng 1.0 < profile.stem_bias then
        pick rng latches
      else source (Random.State.int rng nsources)
    in
    (* distinct fanins *)
    let rec distinct acc n =
      if n = 0 then acc
      else begin
        let f = fanin () in
        if List.memq f acc then distinct acc n
        else distinct (f :: acc) (n - 1)
      end
    in
    let fanins = distinct [] (min k nsources) in
    let k = List.length fanins in
    let cover = random_cover rng k in
    gates.(i) <- N.add_logic net ~name:(Printf.sprintf "g%d" i) cover fanins
  done;
  let ngates = profile.ngates in
  let newest j = gates.(ngates - 1 - j) in
  (* Rewire latch data: with feedback from the gates (newest first), else
     from the PIs, then the gates. *)
  Array.iter
    (fun l ->
      let data =
        if profile.feedback && ngates > 0 then
          newest (Random.State.int rng ngates)
        else
          let j = Random.State.int rng (npi + ngates) in
          if j < npi then pis.(j) else newest (j - npi)
      in
      N.replace_fanin net l ~old_fanin:(N.latch_data net l) ~new_fanin:data)
    latches;
  (* Outputs from distinct gates when possible. *)
  let out_sources =
    if ngates > 0 then Array.init ngates newest else pis
  in
  for i = 0 to profile.npo - 1 do
    N.set_output net (Printf.sprintf "out%d" i) (pick rng out_sources)
  done;
  (* Some generated gates may be dangling; keep the network tidy but do not
     sweep away latches (they self-justify as state). *)
  N.check net;
  net
