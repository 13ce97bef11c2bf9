(** One client's ingest session: frame decoding, protocol sequencing,
    credit accounting, the bounded payload queue, and the streaming
    detector behind it.

    A session is a small state machine — [Awaiting_hello → Streaming →
    Finished] — whose every terminal transition yields exactly one
    {!outcome} (latched; later events cannot change it). The module is
    {b not} thread-safe: {!Server} owns a lock per session and calls in
    under it. Detection itself ({!ingest}ing queued payloads into
    {!Sfr_eventlog.Stream_replay}) is also done under that lock — a
    slow analysis stalls only this session's intake, which is the
    backpressure story working as intended.

    Credit: {!on_bytes} accepts a [DATA] payload only while the client
    holds enough credit; acceptance debits it, {!ingest} earns it back
    (bounded by the window), and the caller forwards the resulting
    [CREDIT] frame. A client that overruns its window is finished with
    [ERR_PROTOCOL] — by construction a session never buffers more than
    [credit_window] bytes. Credit is never withheld: the server's one
    overload response is to finish a session ({!finish_overload}). *)

type config = {
  credit_window : int;  (** max un-ingested DATA bytes per session *)
  deadline_ms : int option;  (** wall-clock budget for the whole session *)
  idle_ms : int option;  (** max quiet gap between frames *)
}

val default_config : config
(** 256 KiB window, no deadline, no idle timeout. *)

(** The terminal result of a session, kept server-side even when the
    peer is gone and the verdict frame cannot be delivered. *)
type outcome = {
  session : int;
  code : Frame.reply_code;
  races : int;  (** racy locations *)
  events : int;
  bytes_analyzed : int;
  message : string;
  reports : Sfr_detect.Race.report list;
}

val verdict_frame : outcome -> Frame.frame

type t

val create : id:int -> now_ms:int -> config -> t
val id : t -> int
val finished : t -> bool
val outcome : t -> outcome option
val queued_bytes : t -> int
val last_activity_ms : t -> int
val started_ms : t -> int

val credit : t -> int
(** Bytes the client may still send (admin-plane session table). *)

val phase_name : t -> string
(** ["admin"], ["hello"], ["streaming"] or ["finished"] — for the
    admin-plane session table. *)

val admin_only : t -> bool
(** True for a connection whose first request was an admin frame: it
    produces no outcome, holds no budget, and must not count against
    the served-session limit. Cleared if a [HELLO] later arrives. *)

(** An admin-plane request the {e server} must answer from live state
    (the reply needs the whole session table, which the session cannot
    see). *)
type admin_request = Admin_stats | Admin_health | Admin_metrics

(** What the caller must do after a call: send these frames (in order)
    and settle the global byte budget — [accepted] fresh DATA bytes
    entered this session's queue, [released] bytes left it (ingested,
    or dropped by a terminal transition). [finished] is the
    session-termination edge: record the outcome, schedule no more
    work. [admin] lists requests to answer from server state, in
    arrival order, after the [send] frames. *)
type effect_ = {
  send : Frame.frame list;
  accepted : int;
  released : int;
  finished : bool;
  admin : admin_request list;
}

val on_bytes : t -> now_ms:int -> Bytes.t -> pos:int -> len:int -> effect_
(** Feed raw transport bytes: decode frames, apply protocol rules.
    Frame-level errors (bad tag/CRC, overlong, malformed payload),
    out-of-order frames, version mismatch and credit overruns all
    finish the session with a typed reply instead of raising. *)

val ingest : t -> effect_
(** Drain the accepted-payload queue into the detector ([released] =
    bytes drained). [send] carries the earned [CREDIT] and, once a
    received [CLOSE] has been fully processed, the terminal
    [VERDICT]. *)

val needs_ingest : t -> bool
(** Payloads queued, or a [CLOSE] awaiting finalization. *)

val awaiting_hello : t -> bool

val on_disconnect : t -> effect_
(** Transport gone without [CLOSE]: drain what was queued, close the
    stream, latch the best-effort prefix outcome. [send] is
    what {e would} be replied (loopback transports can still deliver
    it). An {!admin_only} session instead finishes quietly — no
    outcome, no verdict frame. *)

val finish_overload : t -> message:string -> effect_
(** Shed under the global byte budget: terminal [ERR_OVERLOAD]
    (retryable) — a [REJECT] when the session never got past [HELLO],
    a partial-stats [VERDICT] once streaming. *)

val check_timeout : t -> now_ms:int -> effect_ option
(** Deadline / idle expiry check; [Some] iff the session just finished
    with [ERR_DEADLINE] or [ERR_IDLE]. *)
