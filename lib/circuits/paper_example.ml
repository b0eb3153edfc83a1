module N = Netlist.Network

let and_cover = Logic.Cover.of_strings 2 [ "11" ]
let or_cover = Logic.Cover.of_strings 2 [ "1-"; "-1" ]

(* Next-state equations (all registers initialized to 0):
     Y1 = a * y1                (gate ga: self-feedback)
     Y2 = y1 + b                (gate gb: reads y1)
     Y3 = (y1*y2 + y3) * (y1*y2)   via the path g1 = y1*y2, g2 = g1 + y3,
                                    g3 = g2 * g1  (g1 has two fanouts)
   Output: o = y3.

   Critical path g1 -> g2 -> g3 has 3 gate delays.  The best conventional
   retiming is 2 (the g2/g3/y3 feedback cycle holds one register over two
   gates of delay).  Resynthesis collapses Y3 to a*y1 after exploiting
   y1-copy equivalence, reaching 1 gate delay. *)
let circuit () =
  let net = N.create ~name:"paper_example" () in
  let a = N.add_input net "a" in
  let b = N.add_input net "b" in
  let y1 = N.add_latch net ~name:"y1" N.I0 a in
  let y2 = N.add_latch net ~name:"y2" N.I0 a in
  let y3 = N.add_latch net ~name:"y3" N.I0 a in
  let ga = N.add_logic net ~name:"ga" and_cover [ a; y1 ] in
  let gb = N.add_logic net ~name:"gb" or_cover [ y1; b ] in
  let g1 = N.add_logic net ~name:"g1" and_cover [ y1; y2 ] in
  let g2 = N.add_logic net ~name:"g2" or_cover [ g1; y3 ] in
  let g3 = N.add_logic net ~name:"g3" and_cover [ g2; g1 ] in
  N.replace_fanin net y1 ~old_fanin:a ~new_fanin:ga;
  N.replace_fanin net y2 ~old_fanin:a ~new_fanin:gb;
  N.replace_fanin net y3 ~old_fanin:a ~new_fanin:g3;
  N.set_output net "o" y3;
  N.check net;
  net

let expected_original_delay = 3 * Netlist.Delay.unit
let expected_retimed_delay = 2 * Netlist.Delay.unit
let expected_resynthesized_delay = Netlist.Delay.unit
