(** The paper's contribution: performance-driven resynthesis exploiting
    retiming-induced state register equivalence (Algorithm 1).

    Pipeline on the delay-critical path of a mapped sequential network:
    + make the critical path fanout-free by gate duplication;
    + forward-retime every state register feeding the path across its fanout
      stem, recording the induced register-equivalence classes (DC_ret);
    + run the retiming engine: forward retiming across every retimable path
      node to a fixpoint, computing initial states;
    + simplify the next-state logic of the retimed registers with DC_ret;
    + re-map locally and run constrained min-area retiming.

    The transformation requires feedback through the registers that feed the
    critical path; purely combinational paths and pipelines are returned
    unchanged (paper, Section IV). *)

type dc_mode =
  | Dc_cover
      (** minimize with the explicit [ri XOR rj] don't-care cover (the
          paper's formulation) *)
  | Substitution
      (** replace equivalent registers by class representatives before
          minimizing (fast path; same fixed point on the suite) *)

type options = {
  lib : Techmap.Genlib.t;
  model : Sta.model;
  max_cone_leaves : int;   (** simplification effort cap *)
  dc_mode : dc_mode;
  remap : bool;            (** re-map after simplification *)
  retime_post : bool;
      (** min-period retiming after restructuring, redistributing the
          registers the engine piled up at the path's end *)
  min_area_post : bool;    (** constrained min-area retiming post-pass *)
  guard_regression : bool;
      (** return the original network when the result's period regressed
          (the paper's open "how far should forward retiming go" question) *)
}

val default_options : options

type outcome = {
  network : Netlist.Network.t;
  applied : bool;  (** false: original returned *)
  note : string;
  stem_splits : int;       (** registers replicated across fanout stems *)
  equivalence_classes : int;
  forward_moves : int;     (** retiming-engine moves performed *)
  simplified_cones : int;  (** cones rebuilt using DC_ret *)
}

val resynthesize :
  ?options:options -> ?hooks:Verify.hook list -> Netlist.Network.t -> outcome
(** The input network is never modified.  Every pass of Algorithm 1 is one
    {!Verify.pass} boundary: [hooks] (default: none) see each pass with the
    DC_ret equivalence classes in force there. *)

val make_path_fanout_free :
  Netlist.Network.t -> Netlist.Network.node list -> int
(** Exposed for tests: duplicate gates so that each path node feeds only the
    next path node; returns the number of duplications. *)

