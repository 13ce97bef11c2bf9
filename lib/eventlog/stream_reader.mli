(** Incremental .sflog decoder — the only one: offline replay feeds it a
    file in slices, the ingestion service feeds it socket bytes.

    The stream may stop at any byte, and detection should track the
    prefix received so far, so this module decodes the wire format
    {e as bytes arrive}: feed it arbitrary byte slices, drain whatever
    events became fully decodable, and settle the footer (CRC over every
    payload byte, declared counts) when — if ever — it shows up.

    By necessity of streaming:

    - State IDs cannot be bounds-checked against the footer's declared
      count mid-stream (the footer hasn't arrived); the decoder instead
      tracks the maximum ID referenced and validates it against the
      footer once seen. {!Stream_replay} additionally treats a reference
      that never resolves as a typed inconsistency.
    - A decode that runs out of {e fed} bytes is not an error, it is
      "wait for more". Only {!finish} — the caller declaring end of
      input — turns an incomplete decode into a typed
      [Truncated]/[Bad_*] error.

    Decoded events come out as rows of flat [int] columns ({!batch}),
    not as {!Log_format.event} values: the decoder allocates nothing per
    event, and folds each decoded run of payload bytes into the CRC at
    once.

    Errors are sticky: after the first [Error], every subsequent
    {!drain}/{!finish} returns the same error and fed bytes are
    discarded. All offsets in errors are absolute stream offsets. *)

type summary = {
  s_events : int;  (** footer-declared (and verified) event count *)
  s_states : int;  (** exclusive upper bound on state IDs *)
  s_workers : int;  (** declared worker-stream count *)
}

type t

val create : ?max_workers:int -> unit -> t
(** [max_workers] (default 1024) bounds the worker IDs accepted in chunk
    headers before the footer arrives — a corrupt varint must not make
    the decoder allocate per-worker state for a garbage ID. *)

val feed : t -> Bytes.t -> pos:int -> len:int -> unit
(** Append a byte slice to the decode buffer (copied; the caller may
    reuse the bytes). No-op after an error. *)

(** Decoded events as rows of flat [int] columns, in file order. Row
    [i] (for [i < rows]) is an event of stream [worker.(i)] with opcode
    [op.(i)] (a [Log_format.op_*]) and up to three operands:

    {v
    op                arg0    arg1          arg2
    spawn, create     cur     child         cont
    sync              cur     side offset   next
    put               cur     -             -
    get               cur     put           next
    returned          cont    child_last    -
    read, write       cur     loc           -
    work              cur     amount        -
    v}

    [loc] is absolute (the stream's delta decoding is done). A sync's
    two lists sit in [side] from its offset [o]: [side.(o)] is the
    number [n] of spawned lasts, [side.(o+1 .. o+n)] are their IDs,
    then the count and IDs of the created firsts. Operands marked [-]
    hold stale values. Rows and side entries past [rows] are scratch.

    {b Lifetime.} The batch belongs to the decoder and is refilled by
    every {!drain}: read it before the next one. Its columns are reused
    across drains and grow to the most rows one drain has decoded — at
    most one per two bytes fed at once — so memory follows the bytes
    fed, not the events decoded over the stream's life. *)
type batch = private {
  mutable rows : int;
  mutable op : int array;
  mutable worker : int array;
  mutable arg0 : int array;
  mutable arg1 : int array;
  mutable arg2 : int array;
  mutable side : int array;
  mutable side_len : int;
}

val drain : t -> (batch, Log_format.error) result
(** Decode as far as the fed bytes allow and return the newly complete
    events as the decoder's batch ([rows = 0] means "need more bytes",
    or the footer already settled). The decode does not allocate per
    event. Decode problems that more bytes cannot fix — bad magic,
    unknown opcode, a footer whose CRC or counts disagree with the
    payload — are returned (and latched) immediately; the rows decoded
    by that drain are then dropped. *)

val event : batch -> int -> Log_format.event
(** Row [i] as the event record it was decoded from — the inverse of
    [Log_format.write_event], for tests and debugging; the replay path
    reads the columns.
    @raise Invalid_argument if [i] is not below [rows]. *)

val finish : t -> (summary, Log_format.error) result
(** Declare end of input. [Ok summary] iff a footer arrived, validated,
    and no bytes trail it; otherwise the typed error the torn stream
    amounts to (for a mid-chunk tear: [Truncated] at the exact absolute
    offset). Idempotent. *)

val finished : t -> summary option
(** [Some] once the footer has validated (before or after {!finish}). *)

val consumed : t -> int
(** Absolute stream offset fully decoded so far — the "analyzed prefix
    up to byte N" a torn-stream verdict reports. *)

val buffered : t -> int
(** Bytes fed but not yet decodable (awaiting the rest of an event,
    chunk header, or footer). *)

val events_decoded : t -> int
