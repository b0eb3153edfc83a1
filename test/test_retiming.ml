(* Retiming tests: atomic moves, initial-state computation, Leiserson-Saxe
   min-period retiming, constrained min-area.  Every transformation is
   checked for sequential equivalence. *)

module N = Netlist.Network
module M = Retiming.Moves

let and_cover = Logic.Cover.of_strings 2 [ "11" ]
let or_cover = Logic.Cover.of_strings 2 [ "1-"; "-1" ]
let inv_cover = Logic.Cover.of_strings 1 [ "0" ]
let xor_cover = Logic.Cover.of_strings 2 [ "10"; "01" ]

(* r1 -> g1 -> g2 -> r2 -> r1 feedback loop with two registers in a row:
   retiming can push one register between g1 and g2 (period 2 -> 1). *)
let two_register_loop () =
  let net = N.create ~name:"loop2" () in
  let a = N.add_input net "a" in
  let r1 = N.add_latch net ~name:"r1" N.I0 a in
  let g1 = N.add_logic net ~name:"g1" and_cover [ r1; a ] in
  let g2 = N.add_logic net ~name:"g2" xor_cover [ g1; a ] in
  let r2 = N.add_latch net ~name:"r2" N.I0 g2 in
  N.replace_fanin net r1 ~old_fanin:a ~new_fanin:r2;
  N.set_output net "o" r1;
  N.check net;
  net

let test_forward_move_init () =
  (* g = AND of two latches with inits 1,1 -> new latch init 1 *)
  let net = N.create () in
  let a = N.add_input net "a" and b = N.add_input net "b" in
  let r1 = N.add_latch net ~name:"r1" N.I1 a in
  let r2 = N.add_latch net ~name:"r2" N.I1 b in
  let g = N.add_logic net ~name:"g" and_cover [ r1; r2 ] in
  N.set_output net "o" g;
  let before = N.copy net in
  (match M.forward_across_node net g with
   | Ok latch ->
     Alcotest.(check bool) "init 1" true (N.latch_init latch = N.I1);
     Alcotest.(check int) "one latch now" 1 (N.num_latches net);
     N.check net;
     Alcotest.(check bool) "behaviour preserved" true
       (Oracle.seq_equivalent before net)
   | Error e -> Alcotest.fail (M.error_message e))

let test_forward_move_init_and0 () =
  let net = N.create () in
  let a = N.add_input net "a" and b = N.add_input net "b" in
  let r1 = N.add_latch net ~name:"r1" N.I1 a in
  let r2 = N.add_latch net ~name:"r2" N.I0 b in
  let g = N.add_logic net ~name:"g" and_cover [ r1; r2 ] in
  N.set_output net "o" g;
  match M.forward_across_node net g with
  | Ok latch -> Alcotest.(check bool) "init 0" true (N.latch_init latch = N.I0)
  | Error e -> Alcotest.fail (M.error_message e)

let test_forward_move_x_init () =
  (* AND(1, x) = x; AND(0, x) = 0 under 3-valued evaluation *)
  let net = N.create () in
  let a = N.add_input net "a" and b = N.add_input net "b" in
  let r1 = N.add_latch net ~name:"r1" N.Ix a in
  let r2 = N.add_latch net ~name:"r2" N.I0 b in
  let g = N.add_logic net ~name:"g" and_cover [ r1; r2 ] in
  N.set_output net "o" g;
  let r3 = N.add_latch net ~name:"r3" N.I1 a in
  let r4 = N.add_latch net ~name:"r4" N.Ix b in
  let h = N.add_logic net ~name:"h" and_cover [ r3; r4 ] in
  N.set_output net "p" h;
  let moved_init v =
    match M.forward_across_node net v with
    | Ok latch -> N.latch_init latch
    | Error e -> Alcotest.fail (M.error_message e)
  in
  Alcotest.(check bool) "0 dominates x" true (moved_init g = N.I0);
  Alcotest.(check bool) "1 and x is x" true (moved_init h = N.Ix)

let test_forward_requires_all_latches () =
  let net = N.create () in
  let a = N.add_input net "a" in
  let r = N.add_latch net ~name:"r" N.I0 a in
  let g = N.add_logic net ~name:"g" and_cover [ r; a ] in
  N.set_output net "o" g;
  Alcotest.(check bool) "not retimable" false (M.is_forward_retimable net g);
  match M.forward_across_node net g with
  | Error (M.Not_retimable _) -> ()
  | Ok _ | Error (M.No_initial_state _) -> Alcotest.fail "expected failure"

let test_forward_self_loop () =
  (* v reads its own latched output: toggle-style; register must remain on
     the loop. *)
  let net = N.create () in
  let a = N.add_input net "a" in
  let r = N.add_latch net ~name:"r" N.I0 a in
  let g = N.add_logic net ~name:"g" inv_cover [ r ] in
  N.replace_fanin net r ~old_fanin:a ~new_fanin:g;
  N.set_output net "o" g;
  let before = N.copy net in
  (* g's only fanin is the latch: forward retimable *)
  match M.forward_across_node net g with
  | Ok _ ->
    N.check net;
    Alcotest.(check int) "still one latch" 1 (N.num_latches net);
    Alcotest.(check bool) "behaviour preserved" true
      (Oracle.seq_equivalent before net)
  | Error e -> Alcotest.fail (M.error_message e)

let test_backward_move () =
  (* latch after an AND gate, init 1: preimage must be (1,1) *)
  let net = N.create () in
  let a = N.add_input net "a" and b = N.add_input net "b" in
  let g = N.add_logic net ~name:"g" and_cover [ a; b ] in
  let r = N.add_latch net ~name:"r" N.I1 g in
  N.set_output net "o" r;
  let before = N.copy net in
  (match M.backward_across_node net g with
   | Ok latches ->
     Alcotest.(check int) "two new latches" 2 (List.length latches);
     List.iter
       (fun l ->
         Alcotest.(check bool) "init 1" true (N.latch_init l = N.I1))
       latches;
     N.check net;
     Alcotest.(check bool) "behaviour preserved" true
       (Oracle.seq_equivalent before net)
   | Error e -> Alcotest.fail (M.error_message e))

let test_backward_move_no_preimage () =
  (* constant-0 node with latch init 1: no preimage *)
  let net = N.create () in
  let a = N.add_input net "a" in
  let g =
    N.add_logic net ~name:"g" (Logic.Cover.of_strings 2 [ "10"; "01" ]) [ a; a ]
  in
  (* xor(a, a) = 0 *)
  let r = N.add_latch net ~name:"r" N.I1 g in
  N.set_output net "o" r;
  match M.backward_across_node net g with
  | Error (M.No_initial_state _) -> ()
  | Ok _ -> Alcotest.fail "xor(a,a)=0 cannot have initial value 1"
  | Error (M.Not_retimable m) -> Alcotest.fail m

let test_backward_needs_uniform_inits () =
  let net = N.create () in
  let a = N.add_input net "a" in
  let g = N.add_logic net ~name:"g" inv_cover [ a ] in
  let _r1 = N.add_latch net ~name:"r1" N.I0 g in
  let _r2 = N.add_latch net ~name:"r2" N.I1 g in
  Alcotest.(check bool) "different inits block backward move" false
    (M.is_backward_retimable net g)

let test_split_stem () =
  let net = N.create () in
  let a = N.add_input net "a" in
  let r = N.add_latch net ~name:"r" N.I1 a in
  let g1 = N.add_logic net ~name:"g1" inv_cover [ r ] in
  let g2 = N.add_logic net ~name:"g2" inv_cover [ r ] in
  N.set_output net "o1" g1;
  N.set_output net "o2" g2;
  let before = N.copy net in
  let copies = M.split_stem net r in
  Alcotest.(check int) "two copies" 2 (List.length copies);
  List.iter
    (fun c -> Alcotest.(check bool) "same init" true (N.latch_init c = N.I1))
    copies;
  N.check net;
  Alcotest.(check int) "two latches now" 2 (N.num_latches net);
  Alcotest.(check bool) "behaviour preserved" true
    (Oracle.seq_equivalent before net);
  (* and merging them back restores the register count *)
  (match M.merge_siblings net copies with
   | Ok _ ->
     Alcotest.(check int) "merged back" 1 (N.num_latches net);
     Alcotest.(check bool) "still equivalent" true
       (Oracle.seq_equivalent before net)
   | Error e -> Alcotest.fail (M.error_message e))

let test_merge_rejects_mixed_inits () =
  let net = N.create () in
  let a = N.add_input net "a" in
  let r1 = N.add_latch net ~name:"r1" N.I0 a in
  let r2 = N.add_latch net ~name:"r2" N.I1 a in
  let g = N.add_logic net ~name:"g" and_cover [ r1; r2 ] in
  N.set_output net "o" g;
  match M.merge_siblings net [ r1; r2 ] with
  | Error (M.Not_retimable _) -> ()
  | Ok _ -> Alcotest.fail "mixed inits must not merge"
  | Error (M.No_initial_state m) -> Alcotest.fail m

(* --- min-period retiming ---------------------------------------------------- *)

let test_min_period_loop () =
  let net = two_register_loop () in
  Alcotest.(check (float 1e-9)) "initial period 2" 2.0
    (Sta.clock_period net Sta.unit_delay);
  (match Retiming.Minperiod.min_feasible_period net Sta.unit_delay with
   | Ok p -> Alcotest.(check (float 1e-9)) "feasible period 1" 1.0 p
   | Error f -> Alcotest.fail (Retiming.Minperiod.failure_message f));
  match Retiming.Minperiod.retime_min_period net ~model:Sta.unit_delay with
  | Ok (retimed, period) ->
    Alcotest.(check (float 1e-9)) "achieved 1" 1.0 period;
    Alcotest.(check (float 1e-9)) "measured 1" 1.0
      (Sta.clock_period retimed Sta.unit_delay);
    N.check retimed;
    Alcotest.(check bool) "behaviour preserved" true
      (Oracle.seq_equivalent net retimed)
  | Error f -> Alcotest.fail (Retiming.Minperiod.failure_message f)

let test_retime_infeasible_target () =
  let net = two_register_loop () in
  match Retiming.Minperiod.retime net ~model:Sta.unit_delay ~target:0.5 with
  | Error Retiming.Minperiod.Infeasible -> ()
  | Ok _ -> Alcotest.fail "0.5 is below the loop bound"
  | Error f -> Alcotest.fail (Retiming.Minperiod.failure_message f)

let test_retime_infeasible_long_ring () =
  (* 200 inverters through one latch: every retiming keeps all 200 gates
     between the one register and itself, so a target of 100 is below the
     loop bound. *)
  let net = N.create ~name:"ring200" () in
  let a = N.add_input net "a" in
  let r = N.add_latch net ~name:"r" N.I0 a in
  let last = ref r in
  for i = 1 to 200 do
    last := N.add_logic net ~name:(Printf.sprintf "g%d" i) inv_cover [ !last ]
  done;
  N.replace_fanin net r ~old_fanin:a ~new_fanin:!last;
  N.set_output net "o" r;
  N.check net;
  match Retiming.Minperiod.retime net ~model:Sta.unit_delay ~target:100.0 with
  | Error Retiming.Minperiod.Infeasible -> ()
  | Ok _ -> Alcotest.fail "100 is below the loop bound of 200"
  | Error f -> Alcotest.fail (Retiming.Minperiod.failure_message f)

let test_retime_pipeline () =
  (* a -> g1 -> g2 -> g3 -> r -> out: moving the register into the middle of
     the 3-gate chain balances the pipeline (period 3 -> 2). *)
  let net = N.create ~name:"pipe" () in
  let a = N.add_input net "a" and b = N.add_input net "b" in
  let g1 = N.add_logic net ~name:"g1" and_cover [ a; b ] in
  let g2 = N.add_logic net ~name:"g2" or_cover [ g1; b ] in
  let g3 = N.add_logic net ~name:"g3" inv_cover [ g2 ] in
  let r = N.add_latch net ~name:"r" N.I0 g3 in
  N.set_output net "o" r;
  Alcotest.(check (float 1e-9)) "period 3" 3.0
    (Sta.clock_period net Sta.unit_delay);
  match Retiming.Minperiod.retime_min_period net ~model:Sta.unit_delay with
  | Ok (retimed, period) ->
    Alcotest.(check (float 1e-9)) "period 2" 2.0 period;
    Alcotest.(check bool) "behaviour preserved" true
      (Oracle.seq_equivalent net retimed)
  | Error f -> Alcotest.fail (Retiming.Minperiod.failure_message f)

let test_retime_cannot_improve_single_register_pipeline () =
  (* One register, 2-gate stage on each side of any placement: retiming
     cannot beat the current period; the tool must say so. *)
  let net = N.create ~name:"pipe1" () in
  let a = N.add_input net "a" and b = N.add_input net "b" in
  let g1 = N.add_logic net ~name:"g1" and_cover [ a; b ] in
  let g2 = N.add_logic net ~name:"g2" or_cover [ g1; b ] in
  let r = N.add_latch net ~name:"r" N.I0 g2 in
  let g3 = N.add_logic net ~name:"g3" inv_cover [ r ] in
  N.set_output net "o" g3;
  match Retiming.Minperiod.retime_min_period net ~model:Sta.unit_delay with
  | Error Retiming.Minperiod.Infeasible -> ()
  | Ok (_, p) -> Alcotest.failf "unexpected improvement to %.1f" p
  | Error f -> Alcotest.fail (Retiming.Minperiod.failure_message f)

let seq_profile =
  { Circuits.Generators.default_profile with ngates = 14; nlatch = 4; npi = 3 }

let prop_retime_preserves_behaviour =
  QCheck.Test.make ~count:40 ~name:"min-period retiming preserves behaviour"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net = Circuits.Generators.random_sequential ~seed seq_profile in
      N.sweep net;
      match Retiming.Minperiod.retime_min_period net ~model:Sta.unit_delay with
      | Ok (retimed, period) ->
        N.check retimed;
        Sta.clock_period retimed Sta.unit_delay <= period +. 1e-9
        && Oracle.seq_equivalent net retimed
      | Error _ -> true)

let prop_retime_improves_period =
  QCheck.Test.make ~count:40 ~name:"successful retiming reduces the period"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net = Circuits.Generators.random_sequential ~seed seq_profile in
      N.sweep net;
      let before = Sta.clock_period net Sta.unit_delay in
      match Retiming.Minperiod.retime_min_period net ~model:Sta.unit_delay with
      | Ok (retimed, _) ->
        Sta.clock_period retimed Sta.unit_delay < before -. 1e-9
      | Error _ -> true)

let prop_random_moves_preserve_behaviour =
  QCheck.Test.make ~count:40 ~name:"random atomic moves preserve behaviour"
    QCheck.(pair (int_range 0 5_000) (int_range 0 1_000))
    (fun (seed, move_seed) ->
      let net = Circuits.Generators.random_sequential ~seed seq_profile in
      N.sweep net;
      let before = N.copy net in
      let rng = Random.State.make [| move_seed |] in
      for _ = 1 to 6 do
        let nodes = N.logic_nodes net in
        if nodes <> [] then begin
          let v = List.nth nodes (Random.State.int rng (List.length nodes)) in
          match Random.State.int rng 3 with
          | 0 ->
            if M.is_forward_retimable net v then
              ignore (M.forward_across_node net v)
          | 1 ->
            if M.is_backward_retimable net v then
              ignore (M.backward_across_node net v)
          | _ ->
            (match N.latches net with
             | [] -> ()
             | l :: _ -> ignore (M.split_stem net l))
        end
      done;
      N.check net;
      Oracle.seq_equivalent before net)

(* --- min-area ---------------------------------------------------------------- *)

let test_minarea_merges_copies () =
  let net = N.create () in
  let a = N.add_input net "a" in
  let r1 = N.add_latch net ~name:"r1" N.I1 a in
  let r2 = N.add_latch net ~name:"r2" N.I1 a in
  let g = N.add_logic net ~name:"g" and_cover [ r1; r2 ] in
  N.set_output net "o" g;
  let eliminated =
    Retiming.Minarea.minimize_registers net ~model:Sta.unit_delay
      ~max_period:10.0
  in
  Alcotest.(check bool) "at least one register saved" true (eliminated >= 1);
  N.check net

let prop_minarea_sound =
  QCheck.Test.make ~count:30
    ~name:"min-area retiming preserves behaviour and period"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net = Circuits.Generators.random_sequential ~seed seq_profile in
      N.sweep net;
      let before = N.copy net in
      let period = Sta.clock_period net Sta.unit_delay in
      let latches_before = N.num_latches net in
      ignore
        (Retiming.Minarea.minimize_registers net ~model:Sta.unit_delay
           ~max_period:period);
      N.check net;
      N.num_latches net <= latches_before
      && Sta.clock_period net Sta.unit_delay <= period +. 1e-9
      && Oracle.seq_equivalent before net)

let prop_feas_agrees_with_wd =
  QCheck.Test.make ~count:60
    ~name:"FEAS and W/D min-period algorithms agree"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net = Circuits.Generators.random_sequential ~seed seq_profile in
      N.sweep net;
      let a = Retiming.Minperiod.min_feasible_period net Sta.unit_delay in
      let b = Feas.min_period net Sta.unit_delay in
      match a, b with
      | Ok x, Ok y -> abs_float (x -. y) < 1e-9
      | Error Retiming.Minperiod.Infeasible, Error Retiming.Minperiod.Infeasible
        ->
        true
      | _, _ -> false)

(* Per target rather than per optimum: [retime ~target] declines exactly
   the targets the FEAS oracle rejects. *)
let prop_retime_infeasible_iff_feas_rejects =
  QCheck.Test.make ~count:40
    ~name:"retime declines a target exactly when FEAS rejects it"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net = Circuits.Generators.random_sequential ~seed seq_profile in
      N.sweep net;
      let g = Retiming.Minperiod.Internal.build_graph net Sta.unit_delay in
      let period = int_of_float (Sta.clock_period net Sta.unit_delay) in
      List.for_all
        (fun target ->
          let target = float_of_int target in
          let declined =
            match
              Retiming.Minperiod.retime net ~model:Sta.unit_delay ~target
            with
            | Error Retiming.Minperiod.Infeasible -> true
            | Ok _ | Error _ -> false
          in
          declined = not (Feas.feasible g target))
        (List.init period (fun i -> i + 1)))

(* The min-period solver against [Oracle.Minperiod_ref] on mapped netlists:
   mcnc_lite's decimal gate delays make D's bits depend on how the path sums
   associate, which unit delays would not show.  At this size about two in
   three netlists retime, and on about one in fifteen the walk meets a
   labelling that just failed and skips its realization. *)
let reference_profile =
  { Circuits.Generators.default_profile with ngates = 30; nlatch = 8 }

let mapped_reference seed =
  let net = Circuits.Generators.random_sequential ~seed reference_profile in
  N.sweep net;
  Techmap.Mapper.map net ~lib:Techmap.Genlib.mcnc_lite

(* The reference's W/D has no D(v,v) = d(v) entry, so about one mapped
   netlist in a hundred (93 of seeds 0-9999) retimes there to a period
   below one gate's own delay, which no retiming meets: the realized
   network keeps its old period.  The library declines such periods, and
   the network it returns meets the period it reports. *)
let below_a_gate (g : Retiming.Minperiod.Internal.graph) period =
  Array.exists (fun d -> d > period +. 1e-9) g.delay

let prop_minperiod_matches_reference =
  QCheck.Test.make ~count:100
    ~name:"min-period solver matches its reference on mapped netlists"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let module I = Retiming.Minperiod.Internal in
      let module R = Oracle.Minperiod_ref in
      let mapped = mapped_reference seed in
      let model = Sta.mapped_delay in
      let g = I.build_graph mapped model in
      let ((w, d) as wd) = I.wd_matrices g in
      let ((w', d') as wd') = R.wd_matrices g in
      let bits m = Array.map (Array.map Int64.bits_of_float) m in
      let candidates = I.candidate_periods wd in
      let same_result =
        match
          ( Retiming.Minperiod.retime_min_period mapped ~model,
            R.retime_min_period mapped ~model )
        with
        | Ok (a, p), _ when Sta.clock_period a model > p +. 1e-9 -> false
        | Ok (_, p), Ok (_, q) when below_a_gate g q ->
          not (below_a_gate g p)
        | Error _, Ok (_, q) -> below_a_gate g q
        | Ok (a, p), Ok (b, q) ->
          Int64.bits_of_float p = Int64.bits_of_float q
          && Netlist.Blif.to_string a = Netlist.Blif.to_string b
        | Error e, Error f -> e = f
        | Ok _, Error _ -> false
      in
      w = w'
      && bits d = bits d'
      && candidates = R.candidate_periods wd'
      && List.for_all
           (fun c -> I.feasible_retiming g wd c = R.feasible_retiming g wd' c)
           candidates
      && same_result)

(* Whenever [critical_cycle] certifies that no retiming beats the current
   period, the cycle is one of the graph's edges with ratio, recomputed
   here, at least the period less the certificate's 1e-12 relative margin;
   FEAS rejects every candidate below the period; and the reference solver,
   which builds W/D, finds no retiming either.  About one seed in four
   fires the certificate (2,415 of seeds 0-9999). *)
let prop_cycle_certificate_sound =
  QCheck.Test.make ~count:100
    ~name:"a cycle certificate proves no retiming beats the period"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let module I = Retiming.Minperiod.Internal in
      let mapped = mapped_reference seed in
      let model = Sta.mapped_delay in
      let g = I.build_graph mapped model in
      let period = Sta.clock_period mapped model in
      match I.critical_cycle g period with
      | None -> true
      | Some cycle ->
        let vertices = Array.of_list cycle in
        let n = Array.length vertices in
        (* the lightest edge from u to v, one more register into the host *)
        let weight u v =
          List.fold_left
            (fun acc (a, b, w) ->
              if a = u && b = v then
                Some (min (Option.value acc ~default:max_int) w)
              else acc)
            None g.edges
          |> Option.map (fun w -> if v = 0 then w + 1 else w)
        in
        let links =
          List.init n (fun i -> weight vertices.(i) vertices.((i + 1) mod n))
        in
        let delay = Array.fold_left (fun s v -> s +. g.delay.(v)) 0.0 vertices in
        let registers = List.fold_left (fun s w -> s + Option.get w) 0 in
        let wd = Oracle.Minperiod_ref.wd_matrices g in
        List.for_all Option.is_some links
        && List.length (List.sort_uniq compare cycle) = n
        && delay /. float_of_int (registers links)
           >= period -. (1e-12 *. period)
        && List.for_all
             (fun c -> c >= period -. 1e-9 || not (Feas.feasible g c))
             (Oracle.Minperiod_ref.candidate_periods wd)
        &&
        match Oracle.Minperiod_ref.retime_min_period mapped ~model with
        | Error Retiming.Minperiod.Infeasible -> true
        | Ok (_, q) -> below_a_gate g q
        | Error _ -> false)

(* The Table I rows whose retiming the certificate settles: after
   script.delay, bbtas and s5378 report Infeasible without a single
   feasibility probe. *)
let test_certificate_on_rows () =
  let was_enabled = Obs.Metrics.enabled () in
  Obs.Metrics.enable ();
  let probes = Obs.Metrics.counter "retiming.probes"
  and certificates = Obs.Metrics.counter "retiming.cycle_certificates" in
  List.iter
    (fun name ->
      let net = (Circuits.Suite.find name).Circuits.Suite.build () in
      let mapped =
        Synth_opt.Script.script_delay net ~lib:Techmap.Genlib.mcnc_lite
      in
      let p0 = Obs.Metrics.counter_value probes
      and c0 = Obs.Metrics.counter_value certificates in
      (match
         Retiming.Minperiod.retime_min_period mapped ~model:Sta.mapped_delay
       with
       | Error Retiming.Minperiod.Infeasible -> ()
       | Ok (_, p) -> Alcotest.failf "%s: unexpected retiming to %g" name p
       | Error f ->
         Alcotest.failf "%s: %s" name (Retiming.Minperiod.failure_message f));
      Alcotest.(check int) (name ^ ": no probe") p0
        (Obs.Metrics.counter_value probes);
      Alcotest.(check int) (name ^ ": one certificate") (c0 + 1)
        (Obs.Metrics.counter_value certificates))
    [ "bbtas"; "s5378" ];
  if not was_enabled then Obs.Metrics.disable ()

let () =
  Alcotest.run "retiming"
    [ ( "moves",
        [ Alcotest.test_case "forward init and(1,1)" `Quick
            test_forward_move_init;
          Alcotest.test_case "forward init and(1,0)" `Quick
            test_forward_move_init_and0;
          Alcotest.test_case "forward init with x" `Quick
            test_forward_move_x_init;
          Alcotest.test_case "forward needs all latches" `Quick
            test_forward_requires_all_latches;
          Alcotest.test_case "forward self loop" `Quick test_forward_self_loop;
          Alcotest.test_case "backward with preimage" `Quick test_backward_move;
          Alcotest.test_case "backward without preimage" `Quick
            test_backward_move_no_preimage;
          Alcotest.test_case "backward uniform inits" `Quick
            test_backward_needs_uniform_inits;
          Alcotest.test_case "split and merge stem" `Quick test_split_stem;
          Alcotest.test_case "merge rejects mixed inits" `Quick
            test_merge_rejects_mixed_inits ] );
      ( "minperiod",
        [ Alcotest.test_case "two-register loop" `Quick test_min_period_loop;
          Alcotest.test_case "infeasible target" `Quick
            test_retime_infeasible_target;
          Alcotest.test_case "infeasible long ring" `Quick
            test_retime_infeasible_long_ring;
          Alcotest.test_case "pipeline" `Quick test_retime_pipeline;
          Alcotest.test_case "single-register pipeline" `Quick
            test_retime_cannot_improve_single_register_pipeline;
          Alcotest.test_case "cycle certificate on Table I rows" `Quick
            test_certificate_on_rows ] );
      ( "minarea",
        [ Alcotest.test_case "merges equivalent copies" `Quick
            test_minarea_merges_copies ] );
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [ prop_retime_preserves_behaviour; prop_retime_improves_period;
            prop_random_moves_preserve_behaviour; prop_minarea_sound;
            prop_feas_agrees_with_wd; prop_minperiod_matches_reference;
            prop_cycle_certificate_sound ] );
      ( "feas-oracle",
        List.map QCheck_alcotest.to_alcotest
          [ prop_retime_infeasible_iff_feas_rejects ] ) ]
