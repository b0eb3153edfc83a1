(* Core.Parallel scheduler: byte-determinism under adversarial task
   durations, nested fork/join, queue stress across two domains, pool
   sizing and start-up failure, and failure/backtrace semantics.  All
   expectations are against the jobs=1 run, which is serial program order
   by construction. *)

module P = Core.Parallel

(* Deterministic pseudo-work: spin for [n] iterations so task durations are
   data-dependent and uneven, which is what provokes reordering at
   jobs > 1.  Returns a value derived from the spinning so the loop is
   not optimised away. *)
let busy n =
  let acc = ref 0 in
  for i = 1 to n do
    acc := (!acc * 31) + i
  done;
  !acc land 0xffff

let jobs_grid = [ 1; 2; 4 ]

(* --- map determinism under adversarial durations ------------------------------ *)

let test_map_deterministic_adversarial () =
  (* Durations drawn from a fixed LCG: a mix of near-zero and heavy tasks,
     heaviest first and last (worst case for a greedy splitter). *)
  let lcg = ref 12345 in
  let next () =
    lcg := ((!lcg * 1103515245) + 12345) land 0x3fffffff;
    !lcg
  in
  let items =
    Array.init 97 (fun i ->
        let d = if i mod 7 = 0 then 20000 + (next () mod 30000) else next () mod 50 in
        (i, d))
  in
  let f (i, d) = (i * 2) + busy d in
  let expect = Array.map f items in
  List.iter
    (fun jobs ->
      let got = P.map ~jobs f items in
      Alcotest.(check (array int))
        (Printf.sprintf "map jobs=%d matches serial" jobs)
        expect got)
    jobs_grid

(* --- nested fork/join determinism --------------------------------------------- *)

(* Each item forks a small tree of subtasks with uneven spins; joins are in
   program order, so the combined value must be scheduling-independent. *)
let nested_item (i, d) =
  let a = P.fork (fun () -> busy d + i) in
  let b =
    P.fork (fun () ->
        let inner = P.fork (fun () -> busy (d / 2) + (2 * i)) in
        busy (d mod 97) + P.join inner)
  in
  let c = busy (d mod 31) in
  P.join a + (3 * P.join b) + c

let test_nested_fork_join_deterministic () =
  let items = Array.init 41 (fun i -> (i, 100 + (i * i * 37 mod 9000))) in
  let expect = Array.map nested_item items in
  List.iter
    (fun jobs ->
      let got = P.map ~jobs nested_item items in
      Alcotest.(check (array int))
        (Printf.sprintf "nested jobs=%d matches serial" jobs)
        expect got)
    jobs_grid

(* --- qcheck: random durations, random nesting --------------------------------- *)

let test_qcheck_determinism =
  let gen =
    QCheck.(
      list_of_size Gen.(int_range 0 60)
        (pair (int_range 0 5000) (int_range 0 3)))
  in
  QCheck.Test.make ~count:25 ~name:"parallel map deterministic (random durations)"
    gen (fun spec ->
      let items = Array.of_list spec in
      let f (d, depth) =
        (* fork a chain [depth] deep; each level spins its own amount *)
        let rec chain k =
          if k = 0 then busy d
          else
            let sub = P.fork (fun () -> chain (k - 1)) in
            busy (d mod 53) + P.join sub
        in
        chain depth
      in
      let expect = P.map ~jobs:1 f items in
      let p2 = P.map ~jobs:2 f items in
      let p4 = P.map ~jobs:4 f items in
      expect = p2 && expect = p4)

(* --- queue stress: many tiny tasks, two domains -------------------------------- *)

let test_queue_stress () =
  let n = 1000 in
  let items = Array.init n (fun i -> i) in
  let f i =
    (* tiny nested fork per item keeps the shared queue churning *)
    let sub = P.fork (fun () -> i + 1) in
    P.join sub + busy (i mod 17)
  in
  let expect = P.map ~jobs:1 f items in
  for _ = 1 to 5 do
    let got = P.map ~jobs:2 f items in
    Alcotest.(check (array int)) "queue stress jobs=2 deterministic" expect got
  done

(* --- single claim: every forked body runs exactly once ----------------------------- *)

(* Two joiners race over the same futures: the calling domain and a rival
   task on the worker both join them front to back.  Whichever loses a
   future waits for it, so the two arrive at the next one together and both
   try to claim it.  The [Pending -> Running] CAS in the scheduler must let
   exactly one of them run each body. *)
let test_each_body_runs_once () =
  let n = 500 in
  let runs = Array.init n (fun _ -> Atomic.make 0) in
  for _ = 1 to 20 do
    Array.iter (fun a -> Atomic.set a 0) runs;
    P.run ~jobs:2 (fun () ->
        let shared = Atomic.make [||] in
        (* queued first, so the worker picks it up before any body *)
        let rival =
          P.fork (fun () ->
              let rec wait () =
                match Atomic.get shared with
                | [||] ->
                  Domain.cpu_relax ();
                  wait ()
                | futs -> futs
              in
              let futs = wait () in
              Array.fold_left (fun acc f -> acc + P.join f) 0 futs)
        in
        let futs =
          Array.init n (fun i ->
              P.fork (fun () ->
                  Atomic.incr runs.(i);
                  busy (i mod 23)))
        in
        Atomic.set shared futs;
        let mine = Array.fold_left (fun acc f -> acc + P.join f) 0 futs in
        Alcotest.(check int) "racing joins agree" mine (P.join rival));
    Array.iteri
      (fun i a ->
        Alcotest.(check int) (Printf.sprintf "body %d ran once" i) 1
          (Atomic.get a))
      runs
  done

(* --- failure semantics ---------------------------------------------------------- *)

let test_nested_failure_lowest_index () =
  (* items 13 and 29 fail (13 inside a nested fork); map must surface the
     lowest index regardless of which domain hits its failure first *)
  let f i =
    if i = 29 then failwith "direct-29";
    let sub =
      P.fork (fun () -> if i = 13 then failwith "nested-13" else i)
    in
    P.join sub
  in
  List.iter
    (fun jobs ->
      match P.map ~jobs f (Array.init 57 (fun i -> i)) with
      | _ -> Alcotest.fail "expected Worker_failure"
      | exception P.Worker_failure (i, Failure msg) ->
        Alcotest.(check int)
          (Printf.sprintf "lowest failing index at jobs=%d" jobs)
          13 i;
        Alcotest.(check string) "nested exception surfaced" "nested-13" msg
      | exception e -> raise e)
    jobs_grid

let test_join_result_reifies_failure () =
  P.run ~jobs:2 (fun () ->
      let ok = P.fork (fun () -> 7) in
      let bad = P.fork (fun () -> failwith "boom") in
      Alcotest.(check int) "ok future" 7 (P.join ok);
      (match P.join_result bad with
       | Ok _ -> Alcotest.fail "expected Error"
       | Error (Failure m, bt) ->
         Alcotest.(check string) "exn carried" "boom" m;
         (* backtrace object is captured (may be empty without -g at runtime,
            but the slot must exist and re-raising must not mask the exn) *)
         ignore (Printexc.raw_backtrace_to_string bt)
       | Error (e, _) -> raise e);
      (* joining the same future again is stable *)
      match P.join_result bad with
      | Error (Failure m, _) -> Alcotest.(check string) "stable" "boom" m
      | _ -> Alcotest.fail "expected stable Error")

(* --- pool sizing and start-up failure -------------------------------------------- *)

let test_map_sized_from_items () =
  let pools = Obs.Metrics.counter "parallel.pools" in
  Obs.Metrics.enable ();
  let before = Obs.Metrics.counter_value pools in
  let got = P.map ~jobs:8 (fun x -> x * 3) [| 14 |] in
  let after = Obs.Metrics.counter_value pools in
  ignore (P.map ~jobs:8 succ [| 1; 2 |]);
  let two = Obs.Metrics.counter_value pools in
  Obs.Metrics.disable ();
  Alcotest.(check (array int)) "single-item map result" [| 42 |] got;
  Alcotest.(check int) "one item starts no pool" before after;
  Alcotest.(check int) "two items start one pool" (after + 1) two

let test_failed_start_leaks_no_domain () =
  (* far beyond the runtime's domain limit: the spawn fails partway *)
  (match P.run ~jobs:1000 (fun () -> ()) with
   | () -> Alcotest.fail "expected a 1000-worker pool to fail to start"
   | exception _ -> ());
  Alcotest.(check (array int))
    "map ~jobs:2 after a failed start" [| 1; 2; 3; 4 |]
    (P.map ~jobs:2 succ [| 0; 1; 2; 3 |])

let () =
  Alcotest.run "parallel"
    [ ( "determinism",
        [ Alcotest.test_case "adversarial durations" `Quick
            test_map_deterministic_adversarial;
          Alcotest.test_case "nested fork/join" `Quick
            test_nested_fork_join_deterministic;
          QCheck_alcotest.to_alcotest test_qcheck_determinism ] );
      ( "stress",
        [ Alcotest.test_case "two-domain queue stress" `Quick
            test_queue_stress;
          Alcotest.test_case "each forked body runs once" `Quick
            test_each_body_runs_once ] );
      ( "failures",
        [ Alcotest.test_case "nested lowest-index failure" `Quick
            test_nested_failure_lowest_index;
          Alcotest.test_case "join_result reifies + stable" `Quick
            test_join_result_reifies_failure ] );
      ( "pools",
        [ Alcotest.test_case "map sizes the pool from its items" `Quick
            test_map_sized_from_items;
          (* last: at a scheduler that leaks the domains of a failed start,
             every later pool in this process fails too *)
          Alcotest.test_case "failed start leaks no domain" `Quick
            test_failed_start_leaks_no_domain ] ) ]
