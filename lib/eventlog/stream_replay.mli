(** The replay engine: race detection over a recorded .sflog, complete
    or still arriving.

    Every path that applies a log — offline [racedetect replay], with or
    without [--shards] ({!run_sharded}), [racedetect analyze] (into a
    dag-recording {!Sfr_detect.Naive_detector.trace_detector}), and the
    [serve] daemon's sessions — runs here.
    The engine keeps a {!Stream_reader}, a state table, and a detector,
    and applies events {e resumably}: feed bytes, {!step} applies every
    event that became ready, and the race report is inspectable at any
    prefix. An offline replay is the same loop fed from a file
    ({!run_file}).

    {b Memory and allocation.} Each {!step} copies the decoder's rows
    ({!Stream_reader.batch}) into one FIFO per worker stream with the
    same columns (opcode and three operands, a sync's ID lists in a
    side buffer), reused across feeds; events are applied from there by
    a match on the opcode, so the engine allocates nothing per event
    beyond what the detector's callbacks take (the two state lists of
    [on_sync]). A FIFO holds the events waiting on another stream, so
    its size follows the bytes fed. The state table is a
    {!Sfr_support.Loc_table}: 64 states a page, a directory over at most
    [max 1024 (8 × pages in use)] page numbers, and an overflow map
    beyond it, so its memory follows the states defined or waited on,
    never the largest ID a log names — a few bytes can name state
    2{^60}.

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

    Accesses are checked inline by the detector's callbacks, exactly as
    a live run would. A detector without [supports_parallel] accepts
    only single-worker logs: a second worker stream latches
    [Detector_failed] before any of its events is applied.

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

type verdict = {
  status : status;
  reports : Sfr_detect.Race.report list;  (** sorted by location *)
  racy_locations : int list;
  events_applied : int;
  accesses : int;  (** read/write events among [events_applied] *)
  bytes_analyzed : int;
      (** absolute prefix fully decoded — "analyzed up to byte N" *)
  queries : int;  (** reachability queries so far *)
}

type t

val create : Sfr_detect.Detector.t -> t
(** A replay into this fresh detector. *)

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
    stream were to stop here, unless an error already latched). The
    reports are the detector's so far. *)

val run_file : Sfr_detect.Detector.t -> string -> verdict
(** Offline replay: feed the file in 4 KiB slices, {!step} after each,
    then {!close}. The slices keep the decode buffer and the pending
    queues small; loading the whole file first would not.
    @raise Sys_error only for OS-level failures opening/reading the
    file; every format problem is a typed status. *)

val run_sharded : shards:int -> (unit -> Sfr_detect.Detector.t) -> string -> verdict
(** [run_sharded ~shards make path]: {!run_file} on [shards] domains,
    shard 0 on the caller (no domain is spawned for one shard). Each
    replays the whole log into its own [make ()], whose read and write
    callbacks skip every location outside the shard's {!shard_of}
    class. Algorithm 1 checks an access only against its location's
    history, under reachability that every shard rebuilds alike, so the
    merged verdict equals [run_file (make ()) path] for every registered
    detector: reports are concatenated and sorted by location (the
    classes are disjoint), [queries] is summed, and the status and
    counters are those of the first shard whose status is not
    [Complete], else of shard 0. (A detector that fails inside an
    access check fails only in that location's shard, at the event the
    inline replay fails at; the other shards' reports then run past
    it.)

    Each shard decodes the log and rebuilds the structure, so this pays
    only on logs where access checks dominate, and holds [shards] times
    the structural memory.
    @raise Invalid_argument when [shards] is outside
    [1..]{!Sfr_runtime.Par_exec.max_workers}, before any detector is
    made or domain spawned.
    @raise Sys_error as {!run_file}, once every shard has finished. *)

val shard_of : loc:int -> shards:int -> int
(** The location partition of {!run_sharded} (exposed so tests can pin
    it). *)
