(* Re-export of the fork-join task scheduler ([lib/sched]) under the name
   flows, reports, the daemon and the binaries use. *)

include Sched
