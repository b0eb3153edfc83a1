(** Process-wide metrics registry: counters, gauges, log-bucketed histograms
    and string infos, published by the flow subsystems (retiming probe counts,
    cube-kernel containment rates, eqcheck verdict tallies, verifier rule
    firings, resynthesis deltas, bench measurements).

    Instruments are registered by name ({b naming scheme}:
    [subsystem.topic[.detail]], e.g. [retiming.probes],
    [logic.scc.contains_calls], [eqcheck.cap.product_bits]).  Registration is
    idempotent — asking for an existing name returns the same instrument;
    asking with a different kind raises [Invalid_argument].

    Updates are gated on a process-wide enabled flag (default off): a
    disabled update is one atomic load and a branch, so hot kernels can stay
    permanently instrumented.  Enabled updates are atomic and multi-domain
    safe; totals are deterministic under [--jobs N] because counter addition
    commutes. *)

type counter
type gauge
type histogram

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Zero every instrument (registrations survive). *)

val counter : string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

val histogram : string -> histogram

val observe : histogram -> int -> unit
(** Record a non-negative sample (negative samples clamp to 0).  Buckets are
    fixed powers of two: bucket 0 holds values 0..1, bucket [i >= 1] holds
    values in [2^i, 2^(i+1)). *)

val set_info : string -> string -> unit
(** Free-text metadata (benchmark titles, units) carried through exports. *)

type histogram_snapshot = {
  count : int;
  sum : int;
  max_value : int;
  buckets : (int * int) list;
      (** (bucket lower bound, samples); zero buckets omitted *)
}

val histogram_stats : histogram -> histogram_snapshot

type value =
  | Counter of int
  | Gauge of float
  | Histogram of histogram_snapshot
  | Info of string

val dump : unit -> (string * value) list
(** Every registered instrument, sorted by name. *)

type snapshot
(** A labeled point-in-time copy of the registry, for {!delta}. *)

val snapshot : unit -> snapshot

val delta : snapshot -> (string * value) list
(** Instruments that changed since the snapshot, sorted by name: counters
    and histograms are subtracted (histogram [max] is the current max when
    new samples arrived, else 0); gauges and infos report their current
    value when it differs.  Unchanged instruments are omitted.  This is how
    the serving daemon accounts per-request activity without a global
    {!reset} — note that under concurrent requests a delta covers
    {e everything} that ran in the window, not just one request. *)
