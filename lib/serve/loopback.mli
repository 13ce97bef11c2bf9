(** Deterministic in-memory transport for {!Server}: a client that
    "connects" by function call, so protocol, backpressure, overload
    and fault behaviour are all testable single-threaded with a
    synthetic clock — no sockets anywhere.

    Wire faults come from {!Sfr_chaos.Chaos.wire_fault}: when a chaos
    campaign is armed with a non-zero [wire_rate], each client frame
    crossing {!send_frame} may be truncated, duplicated, bit-flipped
    or dropped-with-hangup, deterministically per (seed, frame index).
    Faults mangle the {e byte image} after encoding — exactly what a
    broken network would do to a real socket.

    The client tracks credit like a well-behaved real client: {!pump}
    sends DATA only up to the granted window (override with
    [~ignore_credit:true] to simulate a hostile one). With an inline
    server ([pool_domains = 0]) every reply is available as soon as
    the call returns; with a pool, {!run_log} blocks until the server's
    drain grants more credit. *)

type client

val connect : Server.t -> client

val raw_send : client -> Bytes.t -> unit
(** Push raw bytes (no framing, no chaos) — for malformed-stream
    tests. *)

val send_frame : ?chaos:bool -> client -> Frame.frame -> unit
(** Encode and deliver one frame, applying a chaos wire fault when
    [chaos] (default [true]) and a campaign is armed. A truncation
    delivers the mangled prefix and marks the client {!torn} (later
    sends are suppressed, like a broken pipe); a disconnect also
    reports the hangup to the server. *)

val disconnect : client -> unit
(** Report transport hangup (idempotent). *)

val replies : client -> Frame.frame list
(** Every frame the server has sent so far, in order. *)

val last_terminal : client -> Frame.frame option
(** The final [VERDICT] / [REJECT], if one arrived. *)

val credit : client -> int
(** Unused send credit (from WELCOME plus CREDIT minus sent DATA). *)

val torn : client -> bool
(** A chaos fault tore this client's uplink. *)

val session_id : client -> int option

val hello : ?chaos:bool -> client -> unit

val pump : ?chaos:bool -> ?ignore_credit:bool -> ?frame:int ->
  client -> Bytes.t -> pos:int -> len:int -> int
(** Stream a slice of a .sflog image as DATA frames of at most [frame]
    bytes (default 4096), never exceeding the current credit unless
    [ignore_credit]. Returns how many bytes were actually framed and
    sent — less than [len] when credit ran dry or the uplink tore. *)

val close : ?chaos:bool -> client -> unit

val run_log : ?chaos:bool -> ?frame:int -> client -> Bytes.t -> unit
(** The whole client lifecycle: {!hello}, {!pump} in credit-sized
    bursts until the image is fully sent, then {!close}. Out of credit,
    it blocks until a reply grants more (however long the server's
    drain takes) or ends the session. Stops early if the uplink tears, a
    terminal reply arrives, or an inline server ({!Server.inline}) has
    nothing more to grant; a stream stopped early is never closed. *)
