(* A tour of the retiming substrate (the paper's Section II).

   Demonstrates:
   - forward retiming across a node and the f(inits) initial-state rule;
   - backward retiming and initial-state preimages, including the failure
     case the paper exploits to explain why SIS retiming gives up;
   - retiming across a fanout stem: register replication with preserved
     initial states, and why the resulting "disagreeing" states are
     unreachable;
   - Leiserson-Saxe min-period retiming on a two-register loop.

   Run with:  dune exec examples/retiming_tour.exe *)

module N = Netlist.Network
module M = Retiming.Moves

let and_c = Logic.Cover.of_strings 2 [ "11" ]
let xor_c = Logic.Cover.of_strings 2 [ "10"; "01" ]
let inv_c = Logic.Cover.of_strings 1 [ "0" ]

let init_str = function N.I0 -> "0" | N.I1 -> "1" | N.Ix -> "x"

let () =
  print_endline "== 1. Forward retiming across a node (Fig. 1) ==";
  let net = N.create () in
  let a = N.add_input net "a" and b = N.add_input net "b" in
  let r1 = N.add_latch net ~name:"r1" N.I1 a in
  let r2 = N.add_latch net ~name:"r2" N.I1 b in
  let g = N.add_logic net ~name:"g" and_c [ r1; r2 ] in
  N.set_output net "o" g;
  Printf.printf "before: AND fed by registers with initial values 1 and 1\n";
  (match M.forward_across_node net g with
   | Ok latch ->
     Printf.printf
       "after:  one register at the AND's output, initial value %s = AND(1,1)\n"
       (init_str (N.latch_init latch))
   | Error e -> print_endline (M.error_message e));

  print_endline "\n== 2. Backward retiming and initial-state preimages ==";
  let net = N.create () in
  let a = N.add_input net "a" and b = N.add_input net "b" in
  let g = N.add_logic net ~name:"g" and_c [ a; b ] in
  let r = N.add_latch net ~name:"r" N.I1 g in
  N.set_output net "o" r;
  (match M.backward_across_node net g with
   | Ok latches ->
     Printf.printf
       "register(init 1) behind AND moves to the inputs: new inits = %s\n"
       (String.concat ","
          (List.map (fun l -> init_str (N.latch_init l)) latches))
   | Error e -> print_endline (M.error_message e));
  (* the failure case: no preimage *)
  let net = N.create () in
  let a = N.add_input net "a" in
  let g = N.add_logic net ~name:"g" xor_c [ a; a ] in
  let _r = N.add_latch net ~name:"r" N.I1 g in
  N.set_output net "o" a;
  (match M.backward_across_node net g with
   | Ok _ -> print_endline "unexpectedly succeeded"
   | Error e ->
     Printf.printf
       "xor(a,a)=0 with a register initialized to 1 cannot move backwards:\n  %s\n"
       (M.error_message e));

  print_endline "\n== 3. Retiming across a fanout stem (Fig. 2 / Fig. 3) ==";
  let net = N.create () in
  let a = N.add_input net "a" in
  let r = N.add_latch net ~name:"r" N.I0 a in
  let g1 = N.add_logic net ~name:"g1" inv_c [ r ] in
  let g2 = N.add_logic net ~name:"g2" inv_c [ r ] in
  N.set_output net "o1" g1;
  N.set_output net "o2" g2;
  let before = N.copy net in
  let copies = M.split_stem net r in
  Printf.printf "register r split into %d copies with equal initial values\n"
    (List.length copies);
  Printf.printf "behaviour preserved: %s\n"
    (Eqcheck.verdict_name (Eqcheck.check_result before net));
  let reach = Dontcare.Reach.unreachable_states net in
  Printf.printf
    "reachable states: %.0f of 4 - the states where the copies disagree are \
     invalid,\nwhich is exactly the retiming-induced don't-care DC_ret = r' \
     XOR r''\n"
    reach.Dontcare.Reach.num_reachable;

  print_endline "\n== 4. Leiserson-Saxe min-period retiming ==";
  let net = N.create () in
  let a = N.add_input net "a" in
  let r1 = N.add_latch net ~name:"r1" N.I0 a in
  let g1 = N.add_logic net ~name:"g1" and_c [ r1; a ] in
  let g2 = N.add_logic net ~name:"g2" xor_c [ g1; a ] in
  let r2 = N.add_latch net ~name:"r2" N.I0 g2 in
  N.replace_fanin net r1 ~old_fanin:a ~new_fanin:r2;
  N.set_output net "o" r1;
  Printf.printf "two registers back-to-back on a 2-gate loop: period %.1f\n"
    (Sta.clock_period net Sta.unit_delay);
  (match Retiming.Minperiod.retime_min_period net ~model:Sta.unit_delay with
   | Ok (retimed, p) ->
     Printf.printf
       "after min-period retiming: period %.1f (one register between the \
        gates)\nequivalent: %s\n"
       p
       (Eqcheck.verdict_name (Eqcheck.check_result net retimed))
   | Error f -> print_endline (Retiming.Minperiod.failure_message f))
