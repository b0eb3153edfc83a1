(** Semantic equivalence analyzer: per-pass sequential equivalence checking
    modulo DC_ret.

    [lib/verify] proves structural invariants; this layer proves the
    {e semantic} claim the whole flow rests on — every pass preserves I/O
    behavior, and the retiming-induced register-equivalence classes really
    are invariants of the reachable state space.

    One verdict lattice ({!Proved} > {!Simulated} > {!Unknown} >
    {!Refuted}) over three checks:

    - {!comb_check} — combinational equivalence of pre/post-pass next-state
      and output cones over shared leaves (primary inputs and present-state
      registers, matched by name), via BDDs with a {!Sat_lite} fallback past
      the node budget.  Each check builds both sides' cones in one fresh BDD
      scope, so the budget counts exactly that check's nodes.  DC_ret cubes
      are satisfiability don't-cares: states where replicated registers
      disagree are excluded from the comparison.
    - {!seq_check} and {!dcret_check} — the two sequential checks, both
      callers of the one reachability engine [Dontcare.Reach]: the product
      machine of two netlists, and the class invariant of one.  A
      counterexample is an {e input trace} walked back through the
      reachability rings and replayed through [Sim.Simulate].

    {!check_result} checks a whole flow result against its input: the
    product machine, then random co-simulation where it gives up.

    Every engine is budgeted (state-bit caps, a BDD node cap, a SAT conflict
    cap) and degrades to an explicit {!Unknown} — never to silence and never
    to a spurious refutation.  A {!Refuted} verdict always carries a
    simulation-confirmed counterexample; a candidate the replay cannot
    reproduce is downgraded to {!Unknown}. *)

type options = {
  max_state_bits : int;
      (** latch cap for {!dcret_check} reachability; beyond it: Unknown *)
  max_product_bits : int;
      (** total latch cap (both machines) for {!seq_check}; beyond it:
          Unknown *)
  max_comb_leaves : int;
      (** shared-leaf cap for {!comb_check}; beyond it: Unknown *)
  max_bdd_nodes : int;
      (** manager node budget; {!comb_check} falls back to SAT, the
          sequential engines report Unknown *)
  sat_conflicts : int;  (** conflict budget of the SAT fallback *)
}

val default_options : options

type cex = {
  endpoint : string;
      (** diverging primary output / next-state function, or
          ["dcret:<a><><b>"] for a class violation *)
  leaves : (string * bool) list;
      (** combinational: the full leaf assignment; sequential: the input
          vector of the diverging cycle *)
  init_pre : (string * bool) list;  (** initial state, latch name -> value *)
  init_post : (string * bool) list;
  trace : (string * bool) list list;
      (** per-cycle primary-input vectors; [[]] for a purely combinational
          witness *)
  sim_confirmed : bool;
      (** the witness was replayed through [Sim.Simulate] and the divergence
          reproduced *)
}

type verdict =
  | Proved
  | Simulated of string
      (** only from {!check_result}: the product machine gave up (the
          reason) and random co-simulation found no divergence *)
  | Refuted of cex
  | Unknown of string  (** the reason: which cap or budget was exceeded *)

type record = {
  label : string;  (** circuit / flow name *)
  pass : string;
  rule : string;  (** ["eq-pass/comb"], ["eq-pass/seq"], ["dcret-invariant"] *)
  verdict : verdict;
  seconds : float;
}

val verdict_name : verdict -> string
(** ["proved"], ["simulated"], ["refuted"], ["unknown"]. *)

val comb_check :
  ?options:options ->
  ?classes:int list list ->
  Netlist.Network.t ->
  Netlist.Network.t ->
  verdict
(** [comb_check pre post] compares every next-state and output cone of the
    two networks as combinational functions of their shared leaves, treating
    the DC_ret [classes] (latch ids; dead ids tolerated) as don't-cares.
    A {!Refuted} here means the {e cone functions} differ on a care-set
    assignment — which refutes sequential equivalence only if that assignment
    is reachable; flow integration escalates to {!seq_check} instead of
    trusting it (unreachable-state simplification legally changes cones). *)

val seq_check :
  ?options:options -> Netlist.Network.t -> Netlist.Network.t -> verdict
(** Product-machine sequential equivalence from the declared initial states
    ([Ix] latches unconstrained).  {!Refuted} carries an input trace from the
    initial state to an output divergence, replayed and confirmed through
    [Sim.Simulate]. *)

val check_result : Netlist.Network.t -> Netlist.Network.t -> verdict
(** Sequential equivalence of a whole flow result [post] to its input [pre],
    as Table I reports it: {!seq_check} with a 28-bit product cap and a
    4M-node budget; when that is {!Unknown} and every latch has a binary
    initial value, 64 runs of 128 random cycles of co-simulation
    ([Sim.Equiv.seq_equal_random], seed [0xC0FFEE]) decide between
    {!Simulated} and a {!Refuted} carrying the diverging input trace.  The
    runs go as bit lanes of one compiled program per network, two words of
    lanes for the 64 runs; their random draws follow the run-by-run order, so
    the verdict and trace are those of simulating one run at a time.  The
    co-simulation is traced as a [verify/cosim] span.  {!Unknown} names a
    latch without a binary initial value when that blocks co-simulation. *)

val dcret_check :
  ?options:options -> Netlist.Network.t -> int list list -> verdict
(** Certify every register-equivalence class as a reachability invariant:
    from the preserved initial state (class members start equal, including
    [Ix] members, which share one unconstrained value), no reachable state
    lets two members of one class disagree. *)

val check_pass :
  ?options:options ->
  label:string ->
  pass:string ->
  classes:int list list ->
  Netlist.Network.t ->
  Netlist.Network.t ->
  record list
(** One pass boundary: an [eq-pass/*] record ({!comb_check} first when the
    leaf/endpoint interfaces match, escalating to {!seq_check} on any
    combinational difference or doubt), plus a [dcret-invariant] record on
    the post-pass network when [classes] is non-empty. *)

val instrument :
  ?options:options -> label:string -> record list ref -> Verify.hook
(** A {!Verify.hook} for [Core.Flow] / [Core.Resynth] that runs
    {!check_pass} at every pass boundary against the network as of the
    previous boundary, and appends its records to the sink in boundary
    order.  When a pass reads a network other than the one the previous
    boundary left (a flow's input, or the start of another lineage from a
    shared input), the reference is re-anchored at that input first.  Both
    sides of every check are snapshots (check k's post side is check k+1's
    pre side), and every check builds both sides' cones afresh in its own
    BDD scope, so its node budget counts exactly that check's work. *)

val counts : record list -> int * int * int
(** (proved, refuted, unknown). *)

val render : record list -> string
(** One line per record. *)

val to_json : record list -> Obs.Json.t
(** The records as a JSON array of objects. *)
