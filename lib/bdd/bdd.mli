(** Reduced ordered binary decision diagrams with hash-consing, one unique
    table per domain.

    Each domain owns one node table, made on its first BDD operation; {!t}
    values are node handles valid for any scope on that table, and
    structural equality of functions is handle equality.  A {!man} is a
    {e scope}: a lightweight accounting handle that tracks which distinct
    nodes its own operations consed, so {!node_count} reports exactly what a
    fresh manager would have allocated for the same operation sequence —
    consumers' node budgets behave identically whether the table is cold or
    warm.  The variable order is the natural integer order on variable
    indices.

    Thread-safety: a scope, and every handle built through it, belongs to
    the domain that created it and must be used only there (checked by the
    sanitizer rule [dls/foreign-scope]).  Domains never share a table, so
    any number of them may build BDDs concurrently. *)

type man
(** A scope onto the calling domain's node table. *)

type t = private int
(** Node handle; structural equality of functions is handle equality (within
    one table). *)

val create : unit -> man
(** Open a scope on the calling domain's table. *)

val sub_scope : man -> man
(** A child scope on the same table: nodes consed through the child are also
    charged to the parent, so the parent's {!node_count} stays cumulative
    while the child isolates the charge of one sub-computation. *)

val adopt : man -> man -> unit
(** [adopt dst src] charges every node recorded in [src] to [dst] (and its
    parents), as if [dst] had consed them itself.  Used to keep budgets exact
    when previously built values are reused instead of rebuilt.  Both scopes
    must share a table. *)

val bfalse : t
val btrue : t

val var : man -> int -> t
(** BDD of the single positive variable [i] ([i >= 0]). *)

val bnot : man -> t -> t
val band : man -> t -> t -> t
val bor : man -> t -> t -> t
val bxor : man -> t -> t -> t
val bxnor : man -> t -> t -> t
val ite : man -> t -> t -> t -> t

val equal : t -> t -> bool
val is_true : t -> bool
val is_false : t -> bool

val cofactor : man -> t -> int -> bool -> t
(** Cofactor with respect to variable [i]. *)

val exists : man -> int list -> t -> t
(** Existential quantification over a set of variables. *)

val forall : man -> int list -> t -> t

val and_exists : man -> int list -> t -> t -> t
(** Relational product: [exists vars (a AND b)], computed without building the
    full conjunction. *)

val compose : man -> t -> int -> t -> t
(** [compose m f i g] substitutes [g] for variable [i] in [f]. *)

val rename : man -> t -> (int -> int) -> t
(** Variable renaming; the mapping must be strictly monotone on the support
    for correctness (checked by assertion on adjacent levels). *)

val support : man -> t -> int list
(** Variables the function depends on, ascending. *)

val size : man -> t -> int
(** Number of distinct internal nodes reachable from the handle. *)

val sat_count : man -> nvars:int -> t -> float
(** Number of satisfying assignments over [nvars] variables. *)

val any_sat : man -> t -> (int * bool) list
(** Some satisfying partial assignment; raises [Not_found] on [bfalse]. *)

val eval : man -> t -> (int -> bool) -> bool

val of_cover : man -> t array -> Logic.Cover.t -> t
(** [of_cover m fanins c]: the sum of [c]'s cubes, input [i] of the cover
    read as [fanins.(i)].  Each cube is a left-to-right conjunction of its
    literals and the cubes are OR-ed in order, so the operation sequence —
    and with it {!node_count} — is fixed by the cover.  Pass
    [Array.init n (var m)] for the cover over variables [0..n-1]. *)

exception Cover_too_large

val to_cover : ?max_cubes:int -> man -> nvars:int -> t -> Logic.Cover.t
(** One cube per 1-path of the diagram (a disjoint cover).  Every variable in
    the support must be below [nvars].  Raises {!Cover_too_large} when the
    path count exceeds [max_cubes]. *)

val node_count : man -> int
(** Distinct nodes consed through this scope, terminals included — equal to
    what a fresh per-check manager would report, independent of table warmth.
    Node budgets should use this. *)

(** {2 Statistics} *)

type stats = {
  table_nodes : int;  (** nodes in the live domains' tables *)
  table_capacity : int;  (** unique-table slots across those tables *)
  table_load_pct : float;
  ite_hits : int;
  ite_misses : int;
  mk_calls : int;
  unique_hits : int;  (** cons calls answered by an existing node *)
  tables_created : int;  (** one per domain that built a BDD *)
  scopes_opened : int;
  nodes_allocated_total : int;  (** across all tables, process-wide *)
}

val stats : unit -> stats
(** Snapshot summed over every domain's table.  The op counters of a domain
    that has exited are folded in when it exits; those of live domains are
    read racily (monotone, may lag). *)

val total_allocated : unit -> int
(** Nodes ever allocated across all tables, live or retired; monotone.
    Deltas of this measure allocation work of a code region. *)

val publish_stats : unit -> unit
(** Export {!stats} into the [Obs.Metrics] registry as [bdd.*] gauges. *)
