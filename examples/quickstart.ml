(* Quickstart: the paper's Section III walkthrough.

   A small sequential circuit whose critical path is three 2-input gates.
   Conventional min-delay retiming reaches 2 gate delays; the paper's
   resynthesis (gate duplication + fanout-stem retiming + retiming engine +
   DC_ret simplification) reaches a single gate delay.

   Run with:  dune exec examples/quickstart.exe *)

module N = Netlist.Network

let show label net =
  Printf.printf "%-14s period %.1f | %d registers | %d gates\n" label
    (Netlist.Delay.to_float (Sta.clock_period net Sta.unit_delay))
    (N.num_latches net) (N.num_logic net)

let () =
  print_endline "== The Section III circuit (Fig. 4a) ==";
  let net = Circuits.Paper_example.circuit () in
  show "original" net;
  let path = Sta.critical_path net Sta.unit_delay in
  Printf.printf "critical path: %s\n\n"
    (String.concat " -> " (List.map (fun n -> n.N.name) path));

  print_endline "== Conventional min-delay retiming (Fig. 4b) ==";
  (match Retiming.Minperiod.retime_min_period net ~model:Sta.unit_delay with
   | Ok (retimed, _) ->
     show "retimed" retimed;
     Printf.printf "equivalent to original: %s\n\n"
       (Eqcheck.verdict_name (Eqcheck.check_result net retimed))
   | Error f ->
     Printf.printf "retiming failed: %s\n\n"
       (Retiming.Minperiod.failure_message f));

  print_endline "== The paper's resynthesis (Figs. 5-6) ==";
  let options =
    { Core.Resynth.default_options with
      Core.Resynth.model = Sta.unit_delay;
      remap = false }
  in
  let outcome = Core.Resynth.resynthesize ~options net in
  show "resynthesized" outcome.Core.Resynth.network;
  Printf.printf
    "mechanism: %d register(s) split across fanout stems, %d equivalence \
     class(es),\n           %d forward retiming moves, %d cone(s) simplified \
     using DC_ret\n"
    outcome.Core.Resynth.stem_splits outcome.Core.Resynth.equivalence_classes
    outcome.Core.Resynth.forward_moves outcome.Core.Resynth.simplified_cones;
  Printf.printf "equivalent to original: %s\n"
    (Eqcheck.verdict_name
       (Eqcheck.check_result net outcome.Core.Resynth.network));

  print_endline "\nfinal netlist:";
  Format.printf "%a@." N.pp outcome.Core.Resynth.network
