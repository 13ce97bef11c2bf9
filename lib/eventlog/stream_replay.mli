(** The replay engine: race detection over a recorded .sflog, complete
    or still arriving.

    Every path that applies a log — offline [racedetect replay], with or
    without [--shards], and the [serve] daemon's sessions — runs here.
    The engine keeps a {!Stream_reader}, a growable state table, and a
    detector, and applies events {e resumably}: feed bytes, {!step}
    applies every event that became ready, and the race report is
    inspectable at any prefix. An offline replay is the same loop fed
    from a file ({!run_file}).

    Worker streams are merged by a greedy topological rule: an event is
    {e ready} once every state ID it references has been defined (by an
    earlier event of any stream) and, for a join, every joined strand
    has ended — a sync waits for each spawned child's [Returned], a get
    for the future's [Put]; ready stream heads are applied until no
    stream can progress. Because the recorder writes a state's defining
    event before any worker can reference it, and the executors record
    [Returned] / [Put] before the join they enable, real time is a
    witness schedule: on a well-formed log the merge never deadlocks and
    yields a linearization of the recorded dag. A log
    recorded serially (one worker stream) replays in exactly the
    recorded order, so a detector replayed over it performs the
    identical callback sequence — and reports the identical races — as
    the live run.

    Two checking modes ({!mode}):
    - [Detector d]: accesses are checked inline by [d]'s callbacks,
      exactly as a live run would. A detector without
      [supports_parallel] accepts only single-worker logs: a second
      worker stream latches [Detector_failed] before any of its events
      is applied.
    - [Sharded n]: a fresh SF-Order instance replays the structural
      events (spawn / create / sync / put / get / returned / work),
      building the reachability structures; access events accumulate in
      per-shard (location-hash, {!shard_of}) batches that are checked on
      [n] domains whenever a batch fills. [Precedes (u, v)] is frozen
      for every pair of strands already inserted — order maintenance
      keeps relative order forever and strand future-sets are immutable
      once published — and shard checks run while the structural merge
      is paused, so they need no synchronization beyond the join. A
      location's whole history lands in one shard, checked in merge
      order, so the merged report (sorted by location) is byte-identical
      for every shard count and race-for-race identical to a live
      SF-Order run.

    Nothing here raises on bad input: decode errors, logical
    inconsistencies, and detector failures ({!Sfr_detect.Detect_error})
    all land in the {!verdict}'s typed status. *)

type error =
  | Stuck of { replayed : int; worker : int; index : int; missing : int }
      (** No stream can make progress: the head event of [worker] at
          [index] references state [missing], which no applied event
          defines (or, for a joined strand, ends). *)
  | Redefined of { worker : int; index : int; id : int }
      (** The event at [worker]/[index] defines a state that already
          exists. *)

val error_to_string : error -> string

type status =
  | Complete  (** clean footer, every event applied *)
  | Torn of Log_format.error
      (** the stream stopped or corrupted mid-log; the verdict covers
          the analyzed prefix *)
  | Inconsistent of error
      (** CRC-clean but logically broken (stuck / redefined state) *)
  | Detector_failed of string
      (** the detector rejected the stream (a foreign state, or a
          second worker stream for a serial-only detector) *)

val status_to_string : status -> string

type mode =
  | Detector of Sfr_detect.Detector.t
      (** check accesses inline with this fresh detector *)
  | Sharded of int
      (** SF-Order structure, accesses checked on this many location
          shards (1 to {!max_shards}) *)

type verdict = {
  status : status;
  reports : Sfr_detect.Race.report list;  (** sorted by location *)
  racy_locations : int list;
  events_applied : int;
  accesses : int;  (** read/write events among [events_applied] *)
  shard_sizes : int array;
      (** accesses per shard ([Sharded] mode; empty otherwise) *)
  bytes_analyzed : int;
      (** absolute prefix fully decoded — "analyzed up to byte N" *)
  queries : int;  (** reachability queries so far *)
}

type t

val max_shards : int
(** 64: the largest shard count [Sharded] accepts. Each batch flush
    spawns one domain per extra shard, and OCaml 5 caps a process at
    128 live domains. *)

val create : mode -> t
(** @raise Invalid_argument on [Sharded n] with [n < 1] or
    [n > max_shards], before any domain is spawned. *)

val feed : t -> Bytes.t -> pos:int -> len:int -> unit
(** Buffer incoming stream bytes. Cheap; no detection happens here. *)

val step : t -> unit
(** Decode what the fed bytes allow and apply every event whose inputs
    are defined. Call after [feed]; amortized cost is proportional to
    the bytes consumed. Errors latch into the eventual verdict instead
    of raising. *)

val close : t -> verdict
(** Declare end of input and return the final verdict: [Complete] iff a
    validated footer arrived and every event applied; otherwise the
    latched failure, or [Torn] with the exact analyzed prefix.
    Idempotent — the first verdict is cached and returned thereafter. *)

val partial : t -> verdict
(** Verdict-so-far without closing (status [Torn (Truncated _)] if the
    stream were to stop here, unless an error already latched). Sharded
    mode flushes pending access batches so the report is current. *)

val run_file : mode -> string -> verdict
(** Offline replay: feed the file in 4 KiB slices, {!step} after each,
    then {!close}. The slices keep the decode buffer and the pending
    queues small; loading the whole file first would not.
    @raise Sys_error only for OS-level failures opening/reading the
    file; every format problem is a typed status. *)

val shard_of : loc:int -> shards:int -> int
(** The location partition of [Sharded] mode (exposed so tests can pin
    it). *)
