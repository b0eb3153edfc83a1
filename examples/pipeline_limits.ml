(* Section IV's negative result: the technique needs feedback.

   "Fully combinational I/O paths and pipelined circuits would not benefit
   from our technique" — the retiming-induced don't-cares come from register
   copies whose values re-enter the logic through feedback loops.  This
   example builds (a) a feed-forward pipeline and (b) a feedback circuit of
   the same size, and shows resynthesis declining on the former and engaging
   on the latter.

   Run with:  dune exec examples/pipeline_limits.exe *)

module N = Netlist.Network

let try_resynthesis label net =
  Printf.printf "== %s: %s\n" label (N.stats_string net);
  let mapped = Core.Flow.script_delay_flow net ~lib:Techmap.Genlib.mcnc_lite in
  let model = Sta.mapped_delay in
  let period net = Netlist.Delay.to_float (Sta.clock_period net model) in
  Printf.printf "   mapped period: %.2f\n" (period mapped);
  let outcome = Core.Resynth.resynthesize mapped in
  if outcome.Core.Resynth.applied then
    Printf.printf
      "   resynthesis APPLIED: period %.2f (splits %d, classes %d, moves %d)\n\n"
      (period outcome.Core.Resynth.network)
      outcome.Core.Resynth.stem_splits
      outcome.Core.Resynth.equivalence_classes
      outcome.Core.Resynth.forward_moves
  else Printf.printf "   resynthesis DECLINED: %s\n\n" outcome.Core.Resynth.note

let () =
  (* (a) a pipeline: registers flow strictly forward, no feedback, and each
     register has a single fanout - no stems to split *)
  let pipeline =
    Circuits.Generators.random_sequential ~seed:404
      { Circuits.Generators.default_profile with
        npi = 4;
        npo = 2;
        nlatch = 4;
        ngates = 16;
        feedback = false;
        stem_bias = 0.0 }
  in
  N.set_name_of_model pipeline "pipeline";
  N.sweep pipeline;
  try_resynthesis "feed-forward pipeline" pipeline;

  (* (b) same size class with FSM-style feedback and shared state registers *)
  let feedback =
    Circuits.Generators.random_sequential ~seed:404
      { Circuits.Generators.default_profile with
        npi = 4;
        npo = 2;
        nlatch = 4;
        ngates = 16;
        feedback = true;
        stem_bias = 0.6 }
  in
  N.set_name_of_model feedback "feedback";
  N.sweep feedback;
  try_resynthesis "feedback (FSM-style) circuit" feedback;

  print_endline
    "The paper's conclusion (Section IV): the equivalence relations only pay \
     off when\nfeedback loops let the copies' values correlate with the logic \
     being simplified."
