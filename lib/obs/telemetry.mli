(** Continuous telemetry: a sampler domain that turns the end-of-run
    snapshot surfaces ({!Metrics}, GC quick-stat, scheduler probes) into
    a bounded time-series, exported three ways.

    {2 Model}

    [start] spawns one sampler domain. Every [sample_ms] (default 10) it
    captures one {!sample}: per-interval {e deltas} of every monotone
    {!Metrics} counter (histograms contribute their [.count]), absolute
    gauge values ({!Metrics} [Max] counters, the scheduler probe, GC
    quick-stat), and any {!mark} labels posted since the previous tick.
    Samples land in a bounded ring of immutable records — the single
    writer is the sampler domain, a record store is one pointer write,
    so concurrent readers can at worst miss the newest entry, never see
    a torn one. When the ring wraps, the {e oldest} samples are
    overwritten; a slow (or absent) consumer costs memory-bounded
    history, not unbounded growth.

    A baseline sample is taken immediately at [start] and a final one
    during [stop] after the sampler quiesces, so even a run shorter than
    one period exports at least two samples.

    {2 Exports}

    - {b JSONL} ([?out]): a header line
      [{"telemetry_schema":1,"sample_ms":…,"ring_capacity":…,"unix_time":…}]
      followed by one JSON object per sample
      ([{"seq":…,"t_ms":…,"marks":[…],"counters":{…},"gauges":{…}}]),
      flushed per line; a {!Flight} crash hook flushes the tail so a
      dying process loses no completed sample. Counters that did not
      move since the previous tick are elided from the line.
    - {b Prometheus} text exposition via {!render_prometheus} (and the
      [racedetect metrics-dump] subcommand).
    - {b Chrome counter events}: while {!Trace_event} collection is on,
      every sampled series is mirrored as a [ph:"C"] event, so
      [--trace-out] traces gain filled counter tracks under the spans.

    {2 Cost}

    Disarmed, the probe-side surface ({!armed}, {!mark}) is one atomic
    flag load — the same discipline as {!Prof} and {!Flight}. Armed, all
    sampling work happens on the sampler's own domain; mutator domains
    pay only the plain-int probe counters they already maintain.

    Sampling skew caveat: ticks are scheduled with [Unix.sleepf], so
    under load the actual inter-sample gap exceeds [sample_ms]; consumers
    must use each sample's [t_ms] (monotonic, from {!Prof.now_ns}), never
    assume a fixed period. *)

type sample = {
  seq : int;  (** 0-based tick index (monotonic, never reused) *)
  t_ms : float;  (** monotonic ms since [start] *)
  marks : string list;  (** {!mark} labels posted since the previous tick *)
  counters : (string * int) list;  (** per-interval deltas; zero deltas elided *)
  gauges : (string * int) list;  (** absolute values at the tick *)
}

val schema_version : int
val default_sample_ms : int
val default_ring_capacity : int

(** {1 Lifecycle} *)

val start :
  ?sample_ms:int ->
  ?ring_capacity:int ->
  ?out:string ->
  ?probe:(unit -> (string * int) list) ->
  unit ->
  unit
(** Arm and spawn the sampler. Idempotent: a second [start] while running
    is a no-op (one sampler per process). [ring_capacity] is rounded up
    to a power of two (min 2, default {!default_ring_capacity}). [probe]
    is polled once per tick on the sampler domain and contributes gauge
    series (e.g. [Sfr_runtime.Par_exec.probe_metrics]); it must be safe
    to call from a foreign domain and should never raise. [out] opens a
    JSONL stream (truncating).
    @raise Invalid_argument if [sample_ms < 1].
    @raise Sys_error if [out] cannot be opened. *)

val stop : unit -> unit
(** Take a final sample, join the sampler domain, close the JSONL
    stream. Idempotent. The ring remains readable ({!samples},
    {!pp_timeline}) until the next [start]. *)

val running : unit -> bool

val armed : unit -> bool
(** One atomic load; [true] between [start] and [stop]. Runtime probe
    sites gate their per-worker stat writes on this. *)

val mark : string -> unit
(** Attach a label to the next sample (and, when tracing, emit a
    {!Trace_event.instant}). Thread-safe; a no-op (one atomic load)
    while disarmed. *)

(** {1 Ring access} *)

val samples : unit -> sample list
(** Retained samples, oldest first. Safe (but racy at the newest end)
    while the sampler runs; exact after {!stop}. Empty before the first
    [start]. *)

val sample_count : unit -> int
(** Total samples taken since [start], including ones the ring has
    overwritten. *)

val pp_timeline : Format.formatter -> unit
(** Render the retained ring as a utilization-over-time table (tasks/s,
    steals/s, deque depth, GC heap words, marks). *)

(** {1 Command-line sinks} *)

type sinks = {
  trace_out : string option;  (** chrome://tracing JSON path *)
  telemetry_out : string option;  (** JSONL telemetry stream path *)
  sample_ms : int;  (** telemetry sampling period *)
}
(** The [--trace-out] / [--telemetry-out] / [--sample-ms] flags that
    every instrumented entry point accepts. *)

val with_sinks :
  ?probe:(unit -> (string * int) list) ->
  ?on_stop:(unit -> unit) ->
  sinks ->
  (unit -> 'a) ->
  'a
(** [with_sinks s f] arms the requested sinks, runs [f], then finalizes
    them: {!Trace_event} collection starts when [trace_out] is set, and
    the sampler ({!start}, with [probe]) whenever either path is set, so
    a trace always carries counter tracks. After [f] the sampler stops
    first — its final counter events land inside the trace — then
    [on_stop] runs (e.g. to print {!pp_timeline}), and each written file
    is announced on stdout. A trace that cannot be written prints
    [cannot write trace: …] on stderr and exits 2. *)

(** {1 Wire formats} *)

val sample_to_json : sample -> string
(** One JSONL line (no trailing newline), parseable by {!Json_min}. *)

val lint_jsonl : string -> (int, string) result
(** Validate a whole JSONL telemetry file (header + samples) and return
    the sample count, or a ["line N: …"] diagnostic. *)

val render_prometheus : ?gauges:(string * int) list -> unit -> string
(** Current {!Metrics.export} state in Prometheus text exposition format
    (version 0.0.4): [# HELP]/[# TYPE] per family, metric names mangled
    to [sfr_]-prefixed snake case, histograms as cumulative
    [_bucket{le="…"}] series closed by [le="+Inf"] plus [_sum]/[_count].
    [gauges] appends extra gauge families (e.g. a live scheduler
    probe). *)

val check_prometheus : string -> (int, string) result
(** Line-by-line grammar check of a text exposition: comment shape,
    metric/label name character sets, label quoting, numeric values,
    every sample preceded by a [# TYPE] for its family ([_bucket]/
    [_sum]/[_count] resolve to their histogram). Returns the number of
    sample lines, or a ["line N: …"] diagnostic. *)
