(* Sequential-equivalence oracle shared by the test executables: the
   whole-result check Table I rows use, accepting a proof or a clean random
   co-simulation. *)
let seq_equivalent a b =
  match Eqcheck.check_result a b with
  | Eqcheck.Proved | Eqcheck.Simulated _ -> true
  | Eqcheck.Refuted _ | Eqcheck.Unknown _ -> false
