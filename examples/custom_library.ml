(* Using a custom gate library.

   The technology substrate reads genlib-format libraries; this example
   defines a richer standard-cell set (faster XORs, an OAI22, a 4-input
   NAND), maps s27 with it, and compares period/area against the built-in
   mcnc_lite library.  It then runs the paper's resynthesis under the
   custom library.

   Run with:  dune exec examples/custom_library.exe *)

module N = Netlist.Network

let custom_genlib =
  {|# a slightly faster, richer cell library
GATE inv    0.9 O=!a;            PIN * INV 1 999 0.8 0.0 0.8 0.0
GATE nand2  1.8 O=!(a*b);        PIN * INV 1 999 0.9 0.0 0.9 0.0
GATE nand3  2.7 O=!(a*b*c);      PIN * INV 1 999 1.1 0.0 1.1 0.0
GATE nand4  3.6 O=!(a*b*c*d);    PIN * INV 1 999 1.3 0.0 1.3 0.0
GATE nor2   1.8 O=!(a+b);        PIN * INV 1 999 1.0 0.0 1.0 0.0
GATE and2   2.6 O=a*b;           PIN * INV 1 999 1.2 0.0 1.2 0.0
GATE or2    2.6 O=a+b;           PIN * INV 1 999 1.2 0.0 1.2 0.0
GATE aoi21  2.8 O=!(a*b+c);      PIN * INV 1 999 1.3 0.0 1.3 0.0
GATE oai21  2.8 O=!((a+b)*c);    PIN * INV 1 999 1.3 0.0 1.3 0.0
GATE oai22  3.4 O=!((a+b)*(c+d)); PIN * INV 1 999 1.5 0.0 1.5 0.0
GATE xor2   4.2 O=a*!b+!a*b;     PIN * INV 1 999 1.5 0.0 1.5 0.0
GATE xnor2  4.2 O=a*b+!a*!b;     PIN * INV 1 999 1.5 0.0 1.5 0.0
|}

let report name lib net =
  let mapped = Synth_opt.Script.script_delay net ~lib in
  let model = Sta.mapped_delay in
  Printf.printf "%-12s period %.2f | area %6.1f | gates %d\n" name
    (Sta.clock_period mapped model)
    (Techmap.Mapper.mapped_area mapped ~lib)
    (N.num_logic mapped);
  mapped

let () =
  let lib = Techmap.Genlib_io.parse_string ~name:"custom" custom_genlib in
  Printf.printf "parsed custom library: %d gates\n\n"
    (List.length lib.Techmap.Genlib.gates);

  let s27 = Circuits.S27.circuit () in
  print_endline "mapping s27 with both libraries:";
  let _ = report "mcnc_lite" Techmap.Genlib.mcnc_lite s27 in
  let mapped = report "custom" lib s27 in

  print_endline "\nresynthesis under the custom library:";
  let options = { Core.Resynth.default_options with Core.Resynth.lib } in
  let outcome = Core.Resynth.resynthesize ~options mapped in
  if outcome.Core.Resynth.applied then begin
    let model = Sta.mapped_delay in
    Printf.printf
      "applied: period %.2f -> %.2f, registers %d -> %d (check: %s)\n"
      (Sta.clock_period mapped model)
      (Sta.clock_period outcome.Core.Resynth.network model)
      (N.num_latches mapped)
      (N.num_latches outcome.Core.Resynth.network)
      (Eqcheck.verdict_name
         (Eqcheck.check_result mapped outcome.Core.Resynth.network))
  end
  else Printf.printf "declined: %s\n" outcome.Core.Resynth.note;

  (* the library writer round-trips *)
  let text = Techmap.Genlib_io.to_string lib in
  let reparsed = Techmap.Genlib_io.parse_string text in
  Printf.printf "\nlibrary printer round-trip: %d gates preserved\n"
    (List.length reparsed.Techmap.Genlib.gates)
