(** The three evaluation flows of the paper's Table I.

    Starting from an RTL-like network:
    - {!script_delay_flow} — performance optimization + min-delay mapping;
    - {!retiming_flow} — the above, then SIS-style min-delay retiming,
      implicit-state-enumeration external don't-cares, resimplification and
      remapping ("conventional retiming and resynthesis");
    - {!resynthesis_flow} — the above baseline plus the paper's technique.

    Every flow reports registers / clock period / mapped area and how
    strongly the result was checked sequentially equivalent to the flow
    input. *)

type stats = {
  regs : int;
  clk : Netlist.Delay.t;  (** ticks *)
  area : float;
}

type attempt = {
  stats : stats option;  (** [None]: the flow could not transform the input *)
  note : string;         (** failure reason or remarks *)
  verified : Eqcheck.verdict option;
      (** {!Eqcheck.check_result} against the flow input; [None] when not
          checked (the flow failed, or [run_all ~verify:false]) *)
}

type row = {
  circuit : string;
  base : stats;                    (** script.delay *)
  retimed : attempt;               (** + retiming + comb. opt. *)
  resynthesized : attempt;         (** + resynthesis (the paper) *)
  resynth_outcome : Resynth.outcome option;
  eqcheck : Eqcheck.record list;
      (** per-pass semantic verdicts ([--eqcheck-each]); [[]] otherwise *)
  verify_diags : Verify.diagnostic list;
      (** static-rule diagnostics of the final flow outputs ([verify_each]);
          [[]] otherwise *)
}

val measure : Netlist.Network.t -> lib:Techmap.Genlib.t -> stats

val script_delay_flow :
  Netlist.Network.t -> lib:Techmap.Genlib.t -> Netlist.Network.t

val retiming_flow :
  ?hooks:Verify.hook list -> Netlist.Network.t -> lib:Techmap.Genlib.t ->
  (Netlist.Network.t, string) result
(** Input must already be mapped (the output of {!script_delay_flow}).
    [hooks] observe every pass boundary ({!Verify.pass}; default: none). *)

val resynthesis_flow :
  ?options:Resynth.options -> ?hooks:Verify.hook list -> Netlist.Network.t ->
  (Netlist.Network.t * Resynth.outcome, string) result
(** Input must already be mapped. *)

val run_all :
  ?verify:bool -> ?verify_each:bool -> ?eqcheck_each:bool ->
  ?hooks:Verify.hook list -> ?resynth_options:Resynth.options ->
  name:string -> Netlist.Network.t -> row
(** Run the three flows on one circuit, mapped onto
    {!Techmap.Genlib.mcnc_lite}, and collect a Table I row.
    [verify_each] (default false) runs the netlist verifier — static rules
    plus the revision audit — after every named pass of every flow, failing
    fast with {!Verify.Verification_failed} naming the circuit, the pass and
    the diagnostics.  [eqcheck_each] (default false) additionally runs the
    semantic equivalence analyzer ({!Eqcheck.check_pass}) at every pass
    boundary, collecting per-pass Proved / Refuted / Unknown verdicts in the
    row instead of raising.  [hooks] are caller hooks placed {e before} the
    built-in ones at every pass boundary of every flow (the serving daemon
    uses this for cooperative cancellation and deadline checks). *)
