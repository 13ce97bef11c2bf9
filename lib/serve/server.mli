(** The ingest supervisor: many concurrent {!Session}s, one global byte
    budget, a configurable overload policy, and an optional domain pool
    for the detection work.

    {b Transport-agnostic by construction.} The server never opens a
    socket: a transport calls {!connect} with a [send] callback, pushes
    received bytes through {!on_bytes}, reports hangups with
    {!on_disconnect}, and calls {!tick} periodically. Time comes from
    the [now_ms] function given at {!create} — tests drive a synthetic
    clock and a loopback transport, so every timeout and overload path
    is deterministic; the real Unix transport lives in the CLI.

    {b Concurrency.} Each connection has its own lock; a session's
    frames, queue, and detector are only ever touched under it. The
    server lock guards the table and the global budget. The two are
    never held together, and detection (the expensive part) runs on
    pool domains — or inline in the caller when [pool_domains = 0],
    which makes single-threaded tests fully deterministic.

    {b Isolation.} Every per-session failure — torn frames, bad CRCs,
    protocol violations, detector errors — latches that session's
    typed outcome and leaves every other session running. The only
    fatal path is {!Fatal} (an internal invariant break), which fires
    the {!Sfr_obs.Flight} crash machinery with a per-session dump. *)

type overload =
  | Shed  (** finish the session whose intake broke the budget ([ERR_OVERLOAD], retryable) *)
  | Park
      (** freeze credit grants for everyone until usage falls below half
          the budget; nobody dies, intake stalls *)
  | Block
      (** refuse sessions still in [HELLO] while over budget; streaming
          sessions are untouched *)

val overload_to_string : overload -> string
val overload_of_string : string -> overload option

type config = {
  session : Session.config;
  global_budget : int;  (** bytes queued across all sessions *)
  overload : overload;
  pool_domains : int;  (** 0 = detection inline in the transport thread *)
  defer_ingest : bool;
      (** [false] (default): accepted payloads are analyzed as they
          arrive. [true]: they only queue; {!tick} drains them — a
          batch cadence for step-driven transports, and the lever that
          lets tests hold the global queue at a chosen level to
          exercise the overload policies deterministically. *)
}

val default_config : config
(** Shed at 4 MiB, inline detection, {!Session.default_config}. *)

exception Fatal of string
(** Internal invariant broken — the server cannot trust its own
    accounting. {!Sfr_obs.Flight.crash_dump} has already fired (with
    the per-session dump hook) when this reaches the caller. *)

type t

val validate : config -> (unit, string) result
(** [Error] names the first out-of-range field: [global_budget < 1],
    [pool_domains] outside [0..]{!Sfr_runtime.Par_exec.max_workers}, or a
    session [credit_window < 1]. *)

val create : ?now_ms:(unit -> int) -> config -> t
(** [now_ms] defaults to a monotonic wall clock.
    @raise Invalid_argument when {!validate} rejects [cfg], before any
    session or pool domain exists. *)

type conn

val connect : t -> send:(Bytes.t -> unit) -> conn
(** Register a connection. [send] delivers server-to-client bytes; it
    is called with the connection lock held and must not call back
    into this module. *)

val on_bytes : t -> conn -> Bytes.t -> pos:int -> len:int -> unit
val on_disconnect : t -> conn -> unit

val tick : t -> unit
(** Deadline / idle sweep at [now_ms]. Call periodically. *)

val session_id : conn -> int option
(** The session id assigned at {!connect}; [None] once the connection
    has been reaped after finishing. *)

val inline : t -> bool
(** [pool_domains = 0] without [defer_ingest]: the server sends every
    reply a frame earns (credit included) before {!on_bytes} returns. *)

val quiesce : t -> unit
(** Block until every scheduled ingest job has drained (pool mode);
    no-op inline. Callers must stop feeding bytes first. *)

val shutdown : t -> unit
(** {!quiesce}, stop the pool, unregister from the crash hook. *)

val outcomes : t -> Session.outcome list
(** Finished sessions, in completion order. Outcomes survive their
    connection (a disconnected client's verdict is still here). *)

val active_sessions : t -> int
val queued_bytes : t -> int
val parked : t -> bool

(** {1 Admin plane}

    The payloads behind the [STATS] / [HEALTH] / [METRICS] request
    frames, also callable directly (tests, a future HTTP shim). Session
    fields are read under the server lock only — same single-torn-read
    tolerance as {!dump_sessions}; the admin plane never contends with
    a connection's data plane. *)

val stats_json : t -> string
(** One JSON document: a ["server"] object (overload policy, parked
    bit, budget / queued / headroom bytes, finished-session and
    audit-record counts) and a ["sessions"] array (id, phase, queued
    bytes, credit, age and idle milliseconds, busy / gone bits). *)

val health : t -> bool * string
(** [(healthy, detail)] — healthy iff not parked and the global queue
    is within budget. [detail] is a one-line human summary either way. *)

val prometheus : t -> string
(** {!Sfr_obs.Telemetry.render_prometheus} plus live server gauges
    ([serve.sessions.active], [serve.budget.bytes],
    [serve.queued.bytes.now], [serve.budget.headroom.bytes],
    [serve.parked]). *)

val dump_sessions : t -> string
(** The per-session summary the crash hook prints: one line per live
    session (id, phase, queued bytes, credit, activity) plus global
    accounting — best-effort and lock-free-ish, safe on crash paths. *)
