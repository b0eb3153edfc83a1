module N = Netlist.Network

type stats = {
  regs : int;
  clk : Netlist.Delay.t;
  area : float;
}

type attempt = {
  stats : stats option;
  note : string;
  verified : Eqcheck.verdict option;
}

type row = {
  circuit : string;
  base : stats;
  retimed : attempt;
  resynthesized : attempt;
  resynth_outcome : Resynth.outcome option;
  eqcheck : Eqcheck.record list;
  verify_diags : Verify.diagnostic list;
}

let measure net ~lib =
  { regs = N.num_latches net;
    clk = Sta.clock_period net Sta.mapped_delay;
    area = Techmap.Mapper.mapped_area net ~lib }

let script_delay_flow net ~lib = Synth_opt.Script.script_delay net ~lib

(* Baseline B: min-delay retiming, then external don't-cares from implicit
   state enumeration, per-node simplification, and a min-delay remap.  Every
   named pass is one [Verify.pass] boundary; with no [hooks] that is just
   its trace span. *)
let retiming_flow ?(hooks = []) net ~lib =
  let model = Sta.mapped_delay in
  match
    Verify.pass hooks ~cat:"retiming" "retiming/min-period"
      (Verify.Fresh
         (net, function Ok (retimed, _) -> Some retimed | Error _ -> None))
      (fun () ->
        Retiming.Minperiod.retime_min_period net ~model)
  with
  | Error failure -> Error (Retiming.Minperiod.failure_message failure)
  | Ok (retimed, _) ->
    Verify.pass hooks ~cat:"retiming" "retiming/unreachable-simplify"
      (Verify.In_place retimed) (fun () ->
        ignore (Dontcare.Reach.simplify_with_unreachable retimed));
    Verify.pass hooks ~cat:"retiming" "retiming/simplify-nodes"
      (Verify.In_place retimed) (fun () ->
        ignore (Synth_opt.Script.simplify_nodes retimed));
    Verify.pass hooks ~cat:"retiming" "retiming/sweep"
      (Verify.In_place retimed) (fun () -> N.sweep retimed);
    Ok
      (Verify.pass hooks ~cat:"retiming" "retiming/remap"
         (Verify.Fresh (retimed, Option.some))
         (fun () -> Techmap.Mapper.map retimed ~lib))

let resynthesis_flow ?(options = Resynth.default_options) ?hooks net =
  let outcome = Resynth.resynthesize ~options ?hooks net in
  if outcome.Resynth.applied then Ok (outcome.Resynth.network, outcome)
  else Error outcome.Resynth.note

let run_all ?(verify = true) ?(verify_each = false) ?(eqcheck_each = false)
    ?(hooks = []) ?(resynth_options = Resynth.default_options) ~name net =
  let lib = Techmap.Genlib.mcnc_lite in
  Obs.Trace.span ~cat:"flow"
    ~args:[ ("circuit", Obs.Trace.Str name) ]
    ("flow/" ^ name)
  @@ fun () ->
  let eq_records = ref [] in
  let eq_hooks =
    if eqcheck_each then
      [ Eqcheck.instrument ~label:name eq_records ]
    else []
  in
  (* caller hooks first: the serving daemon's cancellation / deadline check
     takes effect at each pass boundary before any verifier work runs *)
  let hooks =
    hooks
    @ (if verify_each then [ Verify.hook ~label:name ] else [])
    @ eq_hooks
  in
  let mapped =
    Verify.pass hooks ~cat:"flow" "script.delay"
      (Verify.Fresh (net, Option.some))
      (fun () ->
        let mapped = script_delay_flow net ~lib in
        N.set_name_of_model mapped name;
        mapped)
  in
  let base = measure mapped ~lib in
  let check result =
    if not verify then None
    else
      Obs.Trace.span ~cat:"verify" "verify/seq-equal" (fun () ->
          Some (Eqcheck.check_result mapped result))
  in
  (* each flow's result gets a verification lane: measurement, sequential
     equivalence against [mapped], and the static verifier *)
  let lane which net' =
    Obs.Trace.span ~cat:"verify" ("lane/" ^ which) (fun () ->
        let stats = measure net' ~lib in
        let verified = check net' in
        let diags = if verify_each then Verify.run net' else [] in
        ({ stats = Some stats; note = ""; verified }, diags))
  in
  let failed msg = ({ stats = None; note = msg; verified = None }, []) in
  let retimed, retimed_diags =
    match retiming_flow ~hooks mapped ~lib with
    | Ok net' -> lane "retimed" net'
    | Error msg -> failed msg
  in
  let (resynthesized, resynth_diags), resynth_outcome =
    match resynthesis_flow ~options:resynth_options ~hooks mapped with
    | Ok (net', outcome) -> (lane "resynthesized" net', Some outcome)
    | Error msg -> (failed msg, None)
  in
  { circuit = name;
    base;
    retimed;
    resynthesized;
    resynth_outcome;
    eqcheck = !eq_records;
    verify_diags = retimed_diags @ resynth_diags }
