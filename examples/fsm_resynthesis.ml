(* Resynthesizing a finite-state controller.

   Builds a 10-state Mealy controller (the size class of MCNC's bbara), maps
   it for delay, and pushes it through the three evaluation flows, printing
   the Table-I-style comparison and what the resynthesis machinery did.

   Run with:  dune exec examples/fsm_resynthesis.exe *)

module N = Netlist.Network

let () =
  let machine =
    Circuits.Fsm.random ~seed:2058 ~name:"controller" ~nstates:10 ~ninputs:3
      ~noutputs:2 ()
  in
  Printf.printf "controller: %d states, %d inputs, %d outputs, %d transitions\n"
    machine.Circuits.Fsm.nstates machine.Circuits.Fsm.ninputs
    machine.Circuits.Fsm.noutputs
    (List.length machine.Circuits.Fsm.transitions);
  Printf.printf "transition table is complete and deterministic: %b\n\n"
    (Circuits.Fsm.check_complete machine);

  let net = Circuits.Fsm.to_network machine in
  Printf.printf "synthesized (binary state encoding): %s\n\n"
    (N.stats_string net);

  let row = Core.Flow.run_all ~name:"controller" net in
  print_string (Report.Table.render [ row ]);

  (match row.Core.Flow.resynth_outcome with
   | Some o when o.Core.Resynth.applied ->
     Printf.printf
       "\nresynthesis internals: split %d register stem(s) feeding the \
        critical path,\n  inducing %d equivalence class(es); the retiming \
        engine made %d forward move(s);\n  %d collapsed cone(s) were \
        simplified with the retiming-induced don't-cares.\n"
       o.Core.Resynth.stem_splits o.Core.Resynth.equivalence_classes
       o.Core.Resynth.forward_moves o.Core.Resynth.simplified_cones
   | Some o -> Printf.printf "\nresynthesis declined: %s\n" o.Core.Resynth.note
   | None -> print_newline ());

  let check (a : Core.Flow.attempt) =
    match a.Core.Flow.verified with
    | Some v -> Eqcheck.verdict_name v
    | None -> "not checked"
  in
  Printf.printf
    "\nBoth transformed circuits were checked sequentially equivalent to the \
     mapped input\n(retimed: %s, resynthesized: %s).\n"
    (check row.Core.Flow.retimed)
    (check row.Core.Flow.resynthesized)
