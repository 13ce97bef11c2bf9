(** Structured audit log for the ingest daemon: one typed record per
    session-lifecycle edge, streamed as JSONL so a production incident
    can be reconstructed from the log alone.

    The writer follows the {!Sfr_obs.Telemetry} discipline: a schema
    header line
    [{"audit_schema":1,"unix_time":…}], one JSON object per record
    ([{"seq":…,"t_ms":…,"event":…,"session":…,…}]) flushed as written,
    and a {!Sfr_obs.Flight} crash hook that flushes the OS-buffered
    tail — a dying daemon loses no completed record. A bounded
    in-memory ring keeps the most recent records so crash dumps and
    the admin plane can show recent history without re-reading the
    file.

    The sink is process-global (the daemon is one process, one
    server). Disarmed — no sink open — {!emit} costs one atomic flag
    load, the same discipline as {!Sfr_obs.Prof} / {!Sfr_obs.Flight}.
    Armed, each record takes a mutex, formats one line and flushes;
    emission sites are session-lifecycle edges, never the per-access
    hot path. *)

val schema_version : int

val default_tail_capacity : int

(** One session-lifecycle edge; every record names its session.
    [t_ms]/[seq] stamping happens at {!emit}; records carry only the
    edge's own payload. *)
type record =
  | Session_open of { session : int }  (** transport connected *)
  | Hello of { session : int; version : int }  (** stream opened *)
  | Credit of { session : int; grant : int }  (** credit granted *)
  | Shed of { session : int; evicted : int }
      (** shed under the byte budget, with the queued bytes evicted *)
  | Deadline of { session : int; age_ms : int }
  | Idle of { session : int; quiet_ms : int }
  | Disconnect of { session : int; bytes_analyzed : int }
      (** transport gone without CLOSE; the analyzed-prefix offset *)
  | Verdict of {
      session : int;
      code : string;  (** {!Frame.reply_code_name} *)
      races : int;
      events : int;
      bytes_analyzed : int;
    }

val event_name : record -> string
val session_of : record -> int
val to_json : seq:int -> t_ms:float -> record -> string
(** One JSONL line (no trailing newline), parseable by
    {!Sfr_obs.Json_min}. *)

val pp_record : Format.formatter -> record -> unit

(** {1 Sink lifecycle} *)

val open_sink : ?tail_capacity:int -> path:string -> unit -> unit
(** Open (truncating) the JSONL stream at [path], write the header
    line, and arm {!emit}. Reopening closes the previous sink first.
    @raise Sys_error if [path] cannot be opened.
    @raise Invalid_argument if [tail_capacity < 1]. *)

val close_sink : unit -> unit
(** Disarm and close the stream. Idempotent. The tail ring remains
    readable ({!tail}, {!record_count}) until the next {!open_sink}. *)

val armed : unit -> bool
(** One atomic load; [true] between {!open_sink} and {!close_sink}. *)

val emit : record -> unit
(** Append one record (stamped with the next [seq] and monotonic
    [t_ms] since {!open_sink}). Thread-safe; a no-op (one atomic load)
    while disarmed. *)

val record_count : unit -> int
(** Records written since {!open_sink}. *)

val tail : unit -> (float * record) list
(** The most recent records (bounded by [tail_capacity]), oldest
    first, each with its [t_ms] stamp. *)

val tail_to_text : unit -> string
(** {!tail} rendered one-per-line for crash-dump stderr output. *)

(** {1 Lint} *)

val lint_jsonl : string -> (int, string) result
(** Validate a whole audit JSONL file: schema header, per-line JSON,
    known event names, strictly increasing [seq], and the per-event
    required fields (e.g. a [shed] record must carry [evicted], a
    [disconnect] its [bytes_analyzed]). Returns the record count or a
    ["line N: …"] diagnostic. *)
