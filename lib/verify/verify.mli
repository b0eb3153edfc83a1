(** Rule-based static verifier for {!Netlist.Network.t}.

    Every phase of the resynthesis pipeline is a destructive in-place rewrite
    of the network; the end-to-end simulation diff in the Table I runner
    reports {e that} a flow broke, never {e which pass} broke it or {e how}.
    This module checks the network's structural and semantic invariants
    between passes and reports located, structured diagnostics.

    Rule groups, each named by the prefix of the {!diagnostic.rule_id}s it
    emits:
    - [graph] — fanin/fanout lists are exact multiset inverses, no edges to
      deleted or out-of-range ids, [Cover.nvars] equals the fanin count
      (and every cube matches it), latches have exactly one fanin, sources
      have none, primary outputs and the input list reference live nodes,
      output names are unique;
    - [loop] — no combinational cycles: an SCC sweep over the latch-broken
      logic graph (forbidden by the network contract but otherwise only
      detected when {!Netlist.Network.topo_combinational} happens to run);
    - [retiming] — caller-supplied register-equivalence classes (the
      resynthesis engine's DC_ret bookkeeping) stay well-formed: live class
      members are latches, share their initial value, and drive structurally
      isomorphic input cones (compared by a memoized structural hash with
      latch leaves canonicalized to class representatives);
    - [binding] — technology bindings appear only on logic nodes (gates)
      and latches (the mapper's register cell), never on inputs or
      constants, and carry finite, non-negative area and delay.

    A fifth check, the {!Audit} mode, is dynamic rather than rule-based: it
    snapshots the network, replays a pass, and reports any change the pass
    made without bumping {!Netlist.Network.revision} — observers such as
    [Eqcheck.instrument] skip a boundary whose revisions did not move, so
    such a change would go unchecked.

    The verifier never raises on malformed input; every entry point below
    that does raise ({!expect_clean}, {!hook}) raises only
    {!Verification_failed}, carrying the pass name and rendered
    diagnostics. *)

type severity = Error | Warning

type diagnostic = {
  rule_id : string;    (** e.g. ["graph/edge-asymmetric"] *)
  severity : severity;
  node_ids : int list; (** offending node ids, ascending *)
  message : string;
}

val run :
  ?equiv_classes:int list list ->
  Netlist.Network.t ->
  diagnostic list
(** Run every rule group and return every diagnostic found, errors first.
    [equiv_classes] supplies the retiming-induced register-equivalence
    classes checked by the [retiming] group
    (latch ids per class; dead ids are tolerated — merge-back legitimately
    consumes class members).  Never raises, even on badly corrupted
    networks. *)

val errors : diagnostic list -> diagnostic list
(** The [Error]-severity subset. *)

val render : diagnostic list -> string
(** One line per diagnostic: [severity[rule_id] nodes a,b: message]. *)

val to_json : diagnostic list -> Obs.Json.t
(** The same list as a JSON array of objects. *)

val merge_legal :
  equiv_classes:int list list -> int list -> diagnostic list
(** Min-area merge-back legality: the latch ids about to be merged into one
    register must not straddle two distinct register-equivalence classes —
    otherwise don't-care cubes already used to simplify logic would refer to
    registers that no longer track their class.  Returns a
    [retiming/merge-back] error diagnostic when the group is illegal, [[]]
    when it is fine (including ids outside every class). *)

exception Verification_failed of string
(** Raised by {!expect_clean} and {!hook}; the payload
    names the circuit and pass and embeds {!render} output. *)

val expect_clean :
  ?equiv_classes:int list list ->
  label:string ->
  pass:string ->
  Netlist.Network.t ->
  unit
(** {!run}, then raise {!Verification_failed} if any [Error] diagnostic was
    produced.  [label] names the circuit or flow, [pass] the pass just
    executed. *)

(** Revision-audit mode: catch mutations that do not bump the revision. *)
module Audit : sig
  type snapshot

  val snapshot : Netlist.Network.t -> snapshot
  (** Deep-copies the network and records its two revision counters. *)

  val diff : snapshot -> Netlist.Network.t -> diagnostic list
  (** Compare the network against the snapshot.  When
      {!Netlist.Network.revision} did not move, every node created, deleted
      or changed in kind, fanins, fanout multiset or binding is a
      [journal/unjournaled] error; an output-list change without an
      [outputs_revision] bump is a [journal/outputs] error.  Name changes
      are exempt: [set_name] does not bump the revision by design (names
      carry no timing or structural meaning). *)
end

(** {1 Pass boundaries}

    Every named pass of the flow drivers ([Core.Flow], [Core.Resynth]) is one
    {!pass} call.  It opens the pass's trace span under the pass name and
    lets each {!hook} observe the boundary, so a pass carries one name in the
    tracer, the verifier, the equivalence checker and the serving daemon. *)

type boundary = {
  pass : string;            (** the pass name, also its span name *)
  classes : int list list;
      (** register-equivalence classes in force ([[]] when none apply) *)
  input : Netlist.Network.t;  (** the network the pass reads *)
  in_place : bool;
      (** the pass rewrites [input], rather than building a fresh network *)
}

type hook = boundary -> Netlist.Network.t -> unit
(** [hook b] runs as the pass starts and returns the check to run on the
    network the pass leaves behind.  For an in-place pass both run inside
    the pass span, around the rewrite.  For a fresh-network pass the start
    runs before the span opens and the check after it closes, and only when
    the pass produced a network. *)

type 'a shape =
  | In_place of Netlist.Network.t
      (** the pass rewrites this network *)
  | Fresh of Netlist.Network.t * ('a -> Netlist.Network.t option)
      (** the pass reads this network and builds a new one, extracted from
          its result ([None]: the pass produced nothing) *)

val pass :
  hook list -> cat:string -> ?classes:int list list ->
  ?declared:(unit -> int list list) -> string -> 'a shape -> (unit -> 'a) ->
  'a
(** [pass hooks ~cat name shape f] runs [f] in a span [name] of category
    [cat], with [hooks] started and checked in list order at the boundary.
    [classes] (default [[]]) are handed to every hook.  [declared] is for a
    pass that itself declares classes: after the span closes, the hooks see
    the unchanged network once more, as a fresh-network boundary carrying
    [declared ()].  With no hooks this is {!Obs.Trace.span}. *)

val hook : label:string -> hook
(** The verifier at a boundary: the revision audit plus static rules around
    an in-place pass, the static rules on a fresh network; raises
    {!Verification_failed} naming [label] and the pass. *)
