type pattern =
  | Leaf of int
  | Inv of pattern
  | Nand of pattern * pattern

type gate = {
  gate_name : string;
  area : float;
  delay : Netlist.Delay.t;
  ninputs : int;
  cover : Logic.Cover.t;
  pattern : pattern;
}

type t = {
  lib_name : string;
  gates : gate list;
  latch_area : float;
}

let rec eval_pattern p point =
  match p with
  | Leaf i -> point.(i)
  | Inv q -> not (eval_pattern q point)
  | Nand (a, b) -> not (eval_pattern a point && eval_pattern b point)

let pattern_cover n p =
  Logic.Truthtab.to_cover (Logic.Truthtab.create n (eval_pattern p))

let mk name area delay ninputs cover_strings pattern =
  { gate_name = name;
    area;
    delay;
    ninputs;
    cover = Logic.Cover.of_strings ninputs cover_strings;
    pattern }

let l0 = Leaf 0
let l1 = Leaf 1
let l2 = Leaf 2
let l3 = Leaf 3

(* and2 as a pattern fragment *)
let pand a b = Inv (Nand (a, b))
let por a b = Nand (Inv a, Inv b)

(* delays in ticks: 1_200 is 1.2 units *)
let mcnc_lite =
  let gates =
    [ mk "inv" 1.0 1_000 1 [ "0" ] (Inv l0);
      mk "buf" 2.0 1_000 1 [ "1" ] (Inv (Inv l0));
      mk "nand2" 2.0 1_000 2 [ "0-"; "-0" ] (Nand (l0, l1));
      mk "nand3" 3.0 1_200 3
        [ "0--"; "-0-"; "--0" ]
        (Nand (l0, pand l1 l2));
      mk "nand4" 4.0 1_400 4
        [ "0---"; "-0--"; "--0-"; "---0" ]
        (Nand (pand l0 l1, pand l2 l3));
      mk "nor2" 2.0 1_100 2 [ "00" ] (Inv (por l0 l1));
      mk "nor3" 3.0 1_400 3 [ "000" ] (Inv (por l0 (por l1 l2)));
      mk "and2" 3.0 1_300 2 [ "11" ] (pand l0 l1);
      mk "or2" 3.0 1_300 2 [ "1-"; "-1" ] (por l0 l1);
      (* aoi21 = (x0*x1 + x2)' = x0'x2' + x1'x2' *)
      mk "aoi21" 3.0 1_400 3 [ "0-0"; "-00" ]
        (Inv (Nand (Nand (l0, l1), Inv l2)));
      (* oai21 = ((x0+x1)*x2)' = x0'x1' + x2' *)
      mk "oai21" 3.0 1_400 3 [ "00-"; "--0" ] (Nand (por l0 l1, l2));
      mk "xor2" 5.0 1_900 2 [ "10"; "01" ]
        (Nand (Nand (l0, Inv l1), Nand (Inv l0, l1)));
      mk "xnor2" 5.0 1_900 2 [ "11"; "00" ]
        (Nand (Nand (l0, l1), Nand (Inv l0, Inv l1))) ]
  in
  { lib_name = "mcnc_lite"; gates; latch_area = 8.0 }

let find lib name =
  match List.find_opt (fun g -> g.gate_name = name) lib.gates with
  | Some g -> g
  | None -> invalid_arg ("Genlib.find: unknown gate " ^ name)
