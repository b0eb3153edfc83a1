(** Rendering of Table I and per-row annotations. *)

val header : string
(** Column header lines matching the paper's Table I layout. *)

val row_to_string : Core.Flow.row -> string

val render : Core.Flow.row list -> string
(** Full table plus footnote annotations: failures, the strength of every
    result check that is not a proof, resynthesis statistics. *)

val summary : Core.Flow.row list -> string
(** Aggregate comparison: average ratios of the resynthesis flow vs. the
    retiming flow (the paper's headline claim). *)

val run_suite :
  ?verify:bool -> ?verify_each:bool -> ?eqcheck_each:bool ->
  ?resynth_options:Core.Resynth.options ->
  ?names:string list -> ?jobs:int -> unit -> Core.Flow.row list
(** Run the three flows over the benchmark suite (all entries by default).
    [jobs] (default 1) bounds the worker pool, which never exceeds one
    worker per row; each row is one task that builds its own network and
    BDD managers from a fixed per-entry seed, so the result list is
    identical for every [jobs] value.  [verify_each] runs the netlist verifier after every
    named pass of every flow, failing fast with
    [Verify.Verification_failed] (see {!Core.Flow.run_all}).  [eqcheck_each]
    collects per-pass semantic equivalence verdicts in each row. *)

val run_suite_timed :
  ?verify:bool -> ?verify_each:bool -> ?eqcheck_each:bool ->
  ?resynth_options:Core.Resynth.options ->
  ?names:string list -> ?jobs:int -> unit ->
  Core.Flow.row list * (string * float) list
(** {!run_suite} plus per-row wall-clock seconds in entry order (benchmarks
    use them for slowest-row / critical-path accounting); the timings never
    influence the rows. *)

val eqcheck_records : Core.Flow.row list -> Eqcheck.record list
(** All per-pass eqcheck records of the rows, in row order. *)

val eqcheck_summary : Core.Flow.row list -> string
(** One line: verdict counts across all rows. *)
