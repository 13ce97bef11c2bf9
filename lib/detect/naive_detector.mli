(** Ground-truth race detection by exhaustive offline analysis.

    Consumes a recorded dag and access log (from {!Sfr_runtime.Trace}
    with [~log_accesses:true]) and decides, per location, whether any
    conflicting pair of accesses is logically parallel — using all-pairs
    dag reachability. O(V²/w + A² per location): the oracle the on-the-fly
    detectors are differential-tested against, not a practical detector. *)

type verdict = {
  racy_locations : int list;  (** sorted, distinct *)
  pairs_checked : int;
  races_found : int;  (** total racing pairs (not deduplicated) *)
}

val analyze : Sfr_dag.Dag.t -> Sfr_runtime.Trace.access list -> verdict

val trace_detector : unit -> Sfr_runtime.Trace.t * Detector.t
(** A fresh access-logging {!Sfr_runtime.Trace} seen as a {!Detector.t}:
    Trace's callbacks and root, an empty race set, zero counters, and
    [supports_parallel = true]. It reports nothing itself; it lets an
    engine that drives detectors — the event-log replay — rebuild the
    dag and access log that {!analyze} consumes. *)
