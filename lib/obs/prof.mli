(** Latency and allocation profiling for the detection hot paths.

    The paper's running-time bound is per-phase — reachability queries,
    access-history maintenance, OM relabels — so this module attributes
    wall time (monotonic-clock nanoseconds into {!Sfr_obs.Metrics}
    log-scale histograms) and GC work ({!Gc.quick_stat} deltas) to those
    phases.

    Timing is process-global and {b off by default}. The hot-path
    discipline matches {!Metrics.disable} and the chaos points: an
    instrumented site compiles to

    {[
      let t0 = Prof.start () in   (* one atomic flag load while off *)
      ... the timed region ...
      Prof.stop timer t0          (* one immediate-int compare while off *)
    ]}

    so with profiling disabled the cost is one atomic load and a branch
    (verified by [bench prof-overhead]'s A/B microbenchmark). While on,
    each region pays two [clock_gettime(CLOCK_MONOTONIC)] calls and one
    per-domain histogram bucket increment.

    Timer histograms are ordinary {!Metrics} histograms named
    [prof.<site>.ns], so they ride along in {!Metrics.snapshot},
    [Detector.metrics] diffs and [racedetect --stats]
    for free, as [prof.*.ns.le_N] / [prof.*.ns.count] entries. *)

external now_ns : unit -> int = "sfr_prof_now_ns" [@@noalloc]
(** Monotonic nanoseconds (arbitrary epoch; subtract two samples). *)

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

type timer
(** A named latency histogram ({!Metrics.histogram} of nanoseconds). *)

val timer : string -> timer
(** Register (or look up) the timer histogram named [name]; by
    convention names are [prof.<layer>.<site>.ns].
    @raise Invalid_argument on a name clash with a counter. *)

val start : unit -> int
(** A timestamp to later pass to {!stop} — [0] while profiling is
    disabled (the monotonic clock never reads 0 on a running system). *)

val stop : timer -> int -> unit
(** [stop t t0] records [now_ns () - t0] into [t], or nothing when [t0]
    is the disabled sentinel. *)

val with_timer : timer -> (unit -> 'a) -> 'a
(** Closure convenience for non-hot call sites; exception-safe. *)

(** {1 GC attribution}

    Per-run allocation accounting by {!Gc.quick_stat} deltas. On OCaml 5
    the minor-heap figures are those of the {e calling} domain, so
    capture and diff from the domain that runs the measured region (the
    harness's serial T1 runs, [racedetect run --stats]); counts from
    other domains of a parallel run are not included. *)

type gc_snapshot

val gc_snapshot : unit -> gc_snapshot

val gc_delta : gc_snapshot -> (string * int) list
(** Growth since the snapshot, as metric-style entries (words and
    counts, clamped at 0): [gc.minor_words], [gc.promoted_words],
    [gc.major_words], [gc.minor_collections], [gc.major_collections],
    [gc.compactions]. *)
