(* Tests for the paper's resynthesis algorithm and the Table I flows. *)

module N = Netlist.Network
module R = Core.Resynth

let inv_cover = Logic.Cover.of_strings 1 [ "0" ]

let feedback_profile =
  { Circuits.Generators.default_profile with
    ngates = 14;
    nlatch = 4;
    npi = 3;
    stem_bias = 0.6;
    feedback = true }

let pipeline_profile = { feedback_profile with feedback = false; stem_bias = 0.0 }

let mapped_of_seed ?(profile = feedback_profile) seed =
  let net = Circuits.Generators.random_sequential ~seed profile in
  N.sweep net;
  Synth_opt.Script.script_delay net ~lib:Techmap.Genlib.mcnc_lite

let test_fanout_free_path () =
  (* path g1 -> g2 where g1 also feeds g3: g1 must be duplicated *)
  let net = N.create () in
  let a = N.add_input net "a" and b = N.add_input net "b" in
  let g1 = N.add_logic net ~name:"g1" (Logic.Cover.of_strings 2 [ "11" ]) [ a; b ] in
  let g2 = N.add_logic net ~name:"g2" inv_cover [ g1 ] in
  let g3 = N.add_logic net ~name:"g3" inv_cover [ g1 ] in
  N.set_output net "o1" g2;
  N.set_output net "o2" g3;
  let before = N.copy net in
  let dups = R.make_path_fanout_free net [ g1; g2 ] in
  Alcotest.(check int) "one duplication" 1 dups;
  N.check net;
  Alcotest.(check int) "g1 single fanout now" 1 (List.length g1.N.fanouts);
  Alcotest.(check bool) "behaviour preserved" true
    (Oracle.seq_equivalent before net)

let test_not_applicable_without_stems () =
  (* A pipeline without multi-fanout registers: the paper's technique must
     decline (Section IV). *)
  let mapped = mapped_of_seed ~profile:pipeline_profile 3 in
  let outcome = R.resynthesize mapped in
  Alcotest.(check bool) "not applied" false outcome.R.applied;
  Alcotest.(check bool) "reason mentions registers or gates" true
    (outcome.R.note <> "")

let test_applied_shape () =
  (* find a seed where the technique applies, and check the bookkeeping *)
  let rec hunt seed =
    if seed > 80 then Alcotest.fail "no applicable seed found"
    else begin
      let mapped = mapped_of_seed seed in
      let outcome = R.resynthesize mapped in
      if outcome.R.applied then begin
        Alcotest.(check bool) "splits counted" true (outcome.R.stem_splits > 0);
        Alcotest.(check bool) "classes recorded" true
          (outcome.R.equivalence_classes > 0);
        Alcotest.(check bool) "engine ran" true (outcome.R.forward_moves > 0)
      end
      else hunt (seed + 1)
    end
  in
  hunt 0

let prop_resynthesis_sound =
  QCheck.Test.make ~count:25 ~name:"resynthesis preserves behaviour"
    QCheck.(int_range 0 2_000)
    (fun seed ->
      let mapped = mapped_of_seed seed in
      let outcome = R.resynthesize mapped in
      N.check outcome.R.network;
      (not outcome.R.applied) || Oracle.seq_equivalent mapped outcome.R.network)

let prop_resynthesis_guard =
  QCheck.Test.make ~count:25 ~name:"guard never lets the period regress"
    QCheck.(int_range 0 2_000)
    (fun seed ->
      let mapped = mapped_of_seed seed in
      let model = Sta.mapped_delay in
      let before = Sta.clock_period mapped model in
      let outcome = R.resynthesize mapped in
      Sta.clock_period outcome.R.network model <= before)

let prop_substitution_mode_sound =
  QCheck.Test.make ~count:20 ~name:"substitution dc-mode is sound"
    QCheck.(int_range 0 2_000)
    (fun seed ->
      let mapped = mapped_of_seed seed in
      let options = { R.default_options with R.dc_mode = R.Substitution } in
      let outcome = R.resynthesize ~options mapped in
      (not outcome.R.applied) || Oracle.seq_equivalent mapped outcome.R.network)

let prop_unguarded_still_sound =
  QCheck.Test.make ~count:20 ~name:"unguarded resynthesis is still equivalent"
    QCheck.(int_range 0 2_000)
    (fun seed ->
      let mapped = mapped_of_seed seed in
      let options = { R.default_options with R.guard_regression = false } in
      let outcome = R.resynthesize ~options mapped in
      (not outcome.R.applied) || Oracle.seq_equivalent mapped outcome.R.network)

(* The DC_ret pass's cone counters on one fixed Table I row.  bbara's
   resynthesis runs the whole DC_ret pass before the guard declines it: of
   its 28 cones, four are wider than [max_cone_leaves], 24 carry a
   non-empty DC_ret cover and one gets fewer literals from it, which is
   counted although the row is guarded. *)
let test_dc_ret_cone_counters () =
  let counters =
    [ "resynth.cones"; "resynth.cones_too_wide"; "resynth.cones_with_dc";
      "resynth.simplified_cones" ]
  in
  let values () =
    List.map
      (fun c -> Obs.Metrics.counter_value (Obs.Metrics.counter c))
      counters
  in
  let net = (Circuits.Suite.find "bbara").Circuits.Suite.build () in
  Obs.Metrics.enable ();
  let before = values () in
  let row =
    Fun.protect ~finally:Obs.Metrics.disable (fun () ->
        Core.Flow.run_all ~verify:false ~name:"bbara" net)
  in
  let counted = List.map2 ( - ) (values ()) before in
  Alcotest.(check (list int)) "cones, too wide, with DC, simplified"
    [ 28; 4; 24; 1 ] counted;
  Alcotest.(check bool) "guard declines bbara" true
    (row.Core.Flow.resynthesized.Core.Flow.stats = None)

(* --- flows --------------------------------------------------------------------- *)

(* A flow result passes its check on a proof or a clean co-simulation; only a
   flow that produced no result goes unchecked. *)
let checked_ok (a : Core.Flow.attempt) =
  match a.Core.Flow.verified with
  | None -> a.Core.Flow.stats = None
  | Some (Eqcheck.Proved | Eqcheck.Simulated _) -> true
  | Some (Eqcheck.Refuted _ | Eqcheck.Unknown _) -> false

let test_flow_row () =
  let net = Circuits.Generators.random_sequential ~seed:11 feedback_profile in
  N.sweep net;
  let row = Core.Flow.run_all ~name:"t11" net in
  Alcotest.(check bool) "base regs sane" true (row.Core.Flow.base.Core.Flow.regs >= 0);
  Alcotest.(check bool) "base clk positive" true
    (row.Core.Flow.base.Core.Flow.clk > 0);
  Alcotest.(check bool) "retimed verified" true
    (checked_ok row.Core.Flow.retimed);
  Alcotest.(check bool) "resynth verified" true
    (checked_ok row.Core.Flow.resynthesized)

let prop_flows_verified =
  QCheck.Test.make ~count:15 ~name:"all flows verify on random circuits"
    QCheck.(int_range 0 1_000)
    (fun seed ->
      let net = Circuits.Generators.random_sequential ~seed feedback_profile in
      N.sweep net;
      let row = Core.Flow.run_all ~name:(Printf.sprintf "s%d" seed) net in
      checked_ok row.Core.Flow.retimed
      && checked_ok row.Core.Flow.resynthesized)

let () =
  Alcotest.run "core"
    [ ( "resynth",
        [ Alcotest.test_case "fanout-free path" `Quick test_fanout_free_path;
          Alcotest.test_case "declines without stems" `Quick
            test_not_applicable_without_stems;
          Alcotest.test_case "bookkeeping when applied" `Quick
            test_applied_shape;
          Alcotest.test_case "DC_ret cone counters on bbara" `Quick
            test_dc_ret_cone_counters ] );
      ( "flows", [ Alcotest.test_case "row shape" `Quick test_flow_row ] );
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [ prop_resynthesis_sound; prop_resynthesis_guard;
            prop_substitution_mode_sound; prop_unguarded_still_sound;
            prop_flows_verified ] ) ]
