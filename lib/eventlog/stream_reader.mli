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

val drain : t -> ((int * Log_format.event) list, Log_format.error) result
(** Decode as far as the fed bytes allow and return the newly complete
    [(worker, event)] pairs in file order. [Ok []] means "need more
    bytes" (or the footer already settled). Decode problems that more
    bytes cannot fix — bad magic, unknown opcode, a footer whose CRC or
    counts disagree with the payload — are returned (and latched)
    immediately. *)

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
