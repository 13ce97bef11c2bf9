module Stream_replay = Sfr_eventlog.Stream_replay
module Race = Sfr_detect.Race
module Metrics = Sfr_obs.Metrics
module Flight = Sfr_obs.Flight
module Prof = Sfr_obs.Prof
module Trace_event = Sfr_obs.Trace_event

let m_frames_in = Metrics.counter "serve.frames.in"
let m_frames_out = Metrics.counter "serve.frames.out"
let m_bytes_in = Metrics.counter "serve.bytes.in"
let m_credit_granted = Metrics.counter "serve.credit.granted"
let m_credit_violations = Metrics.counter "serve.credit.violations"
let m_protocol_errors = Metrics.counter "serve.protocol.errors"
let m_admin_requests = Metrics.counter "serve.admin.requests"

(* Hot-path attribution (one-atomic-load disarmed, as everywhere):
   frame decode, the ingest drain, and credit-grant computation. *)
let t_decode = Prof.timer "prof.serve.decode.ns"
let t_ingest = Prof.timer "prof.serve.ingest.ns"
let t_credit = Prof.timer "prof.serve.credit.ns"

(* End-to-end service latencies, always on (two clock reads per DATA
   frame / per session — nothing near the per-access hot path). *)
let h_frame_ack = Metrics.histogram "serve.latency.frame_ack.ns"
let h_hello_verdict = Metrics.histogram "serve.latency.hello_verdict.ms"

(* Each session's lifecycle span lives on its own synthetic trace
   track, keyed by the correlation id: work spans (decode/ingest) land
   on the executing domain's track and nest there; the per-session
   track shows hello -> verdict as one containing span. *)
let session_track sid = 1000 + sid

type config = {
  credit_window : int;
  deadline_ms : int option;
  idle_ms : int option;
}

let default_config =
  {
    credit_window = 256 * 1024;
    deadline_ms = None;
    idle_ms = None;
  }

type outcome = {
  session : int;
  code : Frame.reply_code;
  races : int;
  events : int;
  bytes_analyzed : int;
  message : string;
  reports : Race.report list;
}

let verdict_frame o =
  Frame.Verdict
    {
      code = o.code;
      races = o.races;
      events = o.events;
      bytes_analyzed = o.bytes_analyzed;
      message = o.message;
    }

type phase = Awaiting_hello | Streaming | Finished

type t = {
  sid : int;
  cfg : config;
  decoder : Frame.decoder;
  replay : Stream_replay.t;
  queue : (Bytes.t * int) Queue.t;
      (** accepted DATA payloads (with arrival [Prof.now_ns] stamps for
          the frame->ack latency histogram), not yet ingested *)
  mutable queued : int;
  mutable credit : int;  (** bytes the client may still send *)
  mutable phase : phase;
  mutable close_received : bool;
  mutable result : outcome option;
  started : int;
  mutable last_activity : int;
  mutable admin : bool;
      (** admin requests arrived before any HELLO: this connection is
          an admin session and must latch no outcome *)
  mutable hello_ns : int;  (** [Prof.now_ns] at HELLO; 0 before *)
  mutable span_t0 : float;
      (** [Trace_event.now_us] at HELLO while tracing was on; 0.0
          otherwise — the lifecycle span's start *)
}

let create ~id ~now_ms cfg =
  if cfg.credit_window < 1 then
    invalid_arg "Session.create: credit_window must be >= 1";
  Flight.note ~arg:id "serve.session.open";
  {
    sid = id;
    cfg;
    decoder = Frame.decoder ();
    replay = Stream_replay.create (Sfr_detect.Sf_order.make ());
    queue = Queue.create ();
    queued = 0;
    credit = 0;
    phase = Awaiting_hello;
    close_received = false;
    result = None;
    started = now_ms;
    last_activity = now_ms;
    admin = false;
    hello_ns = 0;
    span_t0 = 0.0;
  }

let id t = t.sid
let finished t = t.phase = Finished
let outcome t = t.result
let queued_bytes t = t.queued
let last_activity_ms t = t.last_activity
let started_ms t = t.started
let awaiting_hello t = t.phase = Awaiting_hello
let admin_only t = t.admin
let credit t = t.credit

let phase_name t =
  match t.phase with
  | Awaiting_hello -> if t.admin then "admin" else "hello"
  | Streaming -> "streaming"
  | Finished -> "finished"

let needs_ingest t =
  t.phase <> Finished && (t.queued > 0 || t.close_received)

(* Admin-plane requests answered by the server from live state — the
   session only records that one arrived; building the reply needs the
   whole session table, which lives a layer up. *)
type admin_request = Admin_stats | Admin_health | Admin_metrics

type effect_ = {
  send : Frame.frame list;
  accepted : int;
  released : int;
  finished : bool;
  admin : admin_request list;
}

let no_effect =
  { send = []; accepted = 0; released = 0; finished = false; admin = [] }

let merge a b =
  {
    send = a.send @ b.send;
    accepted = a.accepted + b.accepted;
    released = a.released + b.released;
    finished = a.finished || b.finished;
    admin = a.admin @ b.admin;
  }

(* Latch an outcome: the one-and-only terminal transition. Any payloads
   still queued are dropped and surfaced as [released] so the server's
   global byte accounting stays exact. *)
let latch t o reply =
  match t.result with
  | Some _ -> no_effect
  | None ->
      t.result <- Some o;
      t.phase <- Finished;
      let released = t.queued in
      Queue.clear t.queue;
      t.queued <- 0;
      Flight.note ~arg:t.sid "serve.session.finish";
      Metrics.incr m_frames_out;
      if t.hello_ns > 0 then
        Metrics.observe h_hello_verdict
          ((Prof.now_ns () - t.hello_ns) / 1_000_000);
      Audit.emit
        (Audit.Verdict
           {
             session = t.sid;
             code = Frame.reply_code_name o.code;
             races = o.races;
             events = o.events;
             bytes_analyzed = o.bytes_analyzed;
           });
      if Trace_event.is_on () then begin
        Trace_event.instant
          ~args:
            [
              ("session", float_of_int t.sid);
              ("verdict", float_of_int (Frame.reply_code_to_int o.code));
              ("races", float_of_int o.races);
            ]
          "serve.session.verdict";
        (* the hello -> verdict lifecycle span, on the session's own
           logical track so the per-domain work spans stay well nested *)
        if t.span_t0 > 0.0 then
          Trace_event.complete
            ~tid:(session_track t.sid)
            ~args:
              [
                ("session", float_of_int t.sid);
                ("verdict", float_of_int (Frame.reply_code_to_int o.code));
                ("races", float_of_int o.races);
                ("events", float_of_int o.events);
              ]
            "serve.session" ~ts_us:t.span_t0
            ~dur_us:(Trace_event.now_us () -. t.span_t0)
      end;
      { send = [ reply ]; accepted = 0; released; finished = true; admin = [] }

(* Terminal with a typed non-verdict code: REJECT before the session
   ever streamed (no stats worth reporting), partial-stats VERDICT
   after. *)
let finish_code t code message =
  if t.phase = Awaiting_hello then
    latch t
      {
        session = t.sid;
        code;
        races = 0;
        events = 0;
        bytes_analyzed = 0;
        message;
        reports = [];
      }
      (Frame.Reject { code; message })
  else begin
    let v = Stream_replay.partial t.replay in
    let o =
      {
        session = t.sid;
        code;
        races = List.length v.Stream_replay.racy_locations;
        events = v.Stream_replay.events_applied;
        bytes_analyzed = v.Stream_replay.bytes_analyzed;
        message;
        reports = v.Stream_replay.reports;
      }
    in
    latch t o (verdict_frame o)
  end

(* Terminal driven by the stream's own verdict (clean CLOSE, or abrupt
   disconnect after draining what arrived). *)
let finish_with_verdict t (v : Stream_replay.verdict) extra_message =
  let code, message =
    match v.Stream_replay.status with
    | Stream_replay.Complete ->
        if v.Stream_replay.racy_locations = [] then (Frame.Ok_clean, "")
        else (Frame.Ok_races, "")
    | Stream_replay.Torn e ->
        ( Frame.Err_torn,
          Printf.sprintf "%s; analyzed prefix up to byte %d%s"
            (Sfr_eventlog.Log_format.error_to_string e)
            v.Stream_replay.bytes_analyzed extra_message )
    | Stream_replay.Inconsistent e ->
        (Frame.Err_inconsistent, Stream_replay.error_to_string e)
    | Stream_replay.Detector_failed m -> (Frame.Err_detector, m)
  in
  let o =
    {
      session = t.sid;
      code;
      races = List.length v.Stream_replay.racy_locations;
      events = v.Stream_replay.events_applied;
      bytes_analyzed = v.Stream_replay.bytes_analyzed;
      message;
      reports = v.Stream_replay.reports;
    }
  in
  latch t o (verdict_frame o)

let protocol_error t what =
  Metrics.incr m_protocol_errors;
  finish_code t Frame.Err_protocol what

let on_frame t frame =
  Metrics.incr m_frames_in;
  match (t.phase, frame) with
  | Finished, _ -> no_effect
  | ( (Awaiting_hello | Streaming),
      ((Frame.Stats_req | Frame.Health_req | Frame.Metrics_req) as req) ) ->
      (* Admin requests are legal before or during a stream. A
         connection that asks before any HELLO is an admin session: it
         latches no outcome and never counts against --max-sessions. *)
      if t.phase = Awaiting_hello then t.admin <- true;
      Metrics.incr m_admin_requests;
      let a =
        match req with
        | Frame.Stats_req -> Admin_stats
        | Frame.Health_req -> Admin_health
        | _ -> Admin_metrics
      in
      { no_effect with admin = [ a ] }
  | Awaiting_hello, Frame.Hello { version } ->
      if version <> Frame.protocol_version then
        protocol_error t
          (Printf.sprintf "unsupported protocol version %d (want %d)" version
             Frame.protocol_version)
      else begin
        t.phase <- Streaming;
        t.admin <- false;
        t.credit <- t.cfg.credit_window;
        t.hello_ns <- Prof.now_ns ();
        if Trace_event.is_on () then begin
          t.span_t0 <- Trace_event.now_us ();
          Trace_event.instant
            ~args:
              [
                ("session", float_of_int t.sid);
                ("version", float_of_int version);
              ]
            "serve.session.hello"
        end;
        Audit.emit (Audit.Hello { session = t.sid; version });
        Audit.emit
          (Audit.Credit { session = t.sid; grant = t.cfg.credit_window });
        Metrics.incr m_frames_out;
        {
          no_effect with
          send =
            [ Frame.Welcome { session = t.sid; credit = t.cfg.credit_window } ];
        }
      end
  | Awaiting_hello, _ -> protocol_error t "expected HELLO"
  | Streaming, Frame.Data b ->
      if t.close_received then protocol_error t "DATA after CLOSE"
      else begin
        let len = Bytes.length b in
        Metrics.add m_bytes_in len;
        if len > t.credit then begin
          Metrics.incr m_credit_violations;
          finish_code t Frame.Err_protocol
            (Printf.sprintf "credit exceeded: %d bytes sent, %d available" len
               t.credit)
        end
        else begin
          t.credit <- t.credit - len;
          Queue.push (b, Prof.now_ns ()) t.queue;
          t.queued <- t.queued + len;
          { no_effect with accepted = len }
        end
      end
  | Streaming, Frame.Close ->
      t.close_received <- true;
      no_effect
  | Streaming, Frame.Hello _ -> protocol_error t "duplicate HELLO"
  | ( _,
      ( Frame.Welcome _ | Frame.Credit _ | Frame.Verdict _ | Frame.Reject _
      | Frame.Stats_reply _ | Frame.Health_reply _ | Frame.Metrics_reply _ ) )
    ->
      protocol_error t "server-to-client frame from client"

let on_bytes t ~now_ms bytes ~pos ~len =
  if t.phase = Finished then no_effect
  else begin
    t.last_activity <- now_ms;
    let pt = Prof.start () in
    (* capture the tracing flag once: collection starting mid-region
       must not produce a span with a garbage start timestamp *)
    let tracing = Trace_event.is_on () in
    let t0 = if tracing then Trace_event.now_us () else 0.0 in
    Frame.decoder_feed t.decoder bytes ~pos ~len;
    let eff = ref no_effect in
    let continue_ = ref true in
    while !continue_ && t.phase <> Finished do
      match Frame.decoder_next t.decoder with
      | Ok None -> continue_ := false
      | Ok (Some frame) -> eff := merge !eff (on_frame t frame)
      | Error e ->
          eff := merge !eff (protocol_error t (Frame.error_to_string e));
          continue_ := false
    done;
    Prof.stop t_decode pt;
    if tracing then
      Trace_event.complete
        ~args:
          [ ("session", float_of_int t.sid); ("bytes", float_of_int len) ]
        "serve.frame.decode" ~ts_us:t0
        ~dur_us:(Trace_event.now_us () -. t0);
    !eff
  end

let ingest t =
  if t.phase = Finished then no_effect
  else begin
    let pt = Prof.start () in
    let tracing = Trace_event.is_on () in
    let t0 = if tracing then Trace_event.now_us () else 0.0 in
    let drained = ref 0 in
    while not (Queue.is_empty t.queue) do
      let b, arrived_ns = Queue.pop t.queue in
      let len = Bytes.length b in
      t.queued <- t.queued - len;
      drained := !drained + len;
      Metrics.observe h_frame_ack (Prof.now_ns () - arrived_ns);
      Stream_replay.feed t.replay b ~pos:0 ~len
    done;
    if !drained > 0 then Stream_replay.step t.replay;
    Prof.stop t_ingest pt;
    if tracing && !drained > 0 then
      Trace_event.complete
        ~args:
          [
            ("session", float_of_int t.sid);
            ("chunk", float_of_int !drained);
          ]
        "serve.session.ingest" ~ts_us:t0
        ~dur_us:(Trace_event.now_us () -. t0);
    let credit_frames =
      if !drained > 0 && not t.close_received then begin
        let cpt = Prof.start () in
        let grant = min !drained (t.cfg.credit_window - t.credit) in
        let frames =
          if grant > 0 then begin
            t.credit <- t.credit + grant;
            Metrics.add m_credit_granted grant;
            Metrics.incr m_frames_out;
            Audit.emit (Audit.Credit { session = t.sid; grant });
            Trace_event.instant
              ~args:
                [
                  ("session", float_of_int t.sid);
                  ("grant", float_of_int grant);
                ]
              "serve.credit.grant";
            [ Frame.Credit grant ]
          end
          else []
        in
        Prof.stop t_credit cpt;
        frames
      end
      else []
    in
    let base = { no_effect with send = credit_frames; released = !drained } in
    if t.close_received then
      merge base
        (finish_with_verdict t (Stream_replay.close t.replay) "")
    else base
  end

let on_disconnect t =
  if t.phase = Finished then no_effect
  else if t.admin then begin
    (* an admin session ends quietly: no stream was ever opened, so
       there is no outcome to latch and nothing to audit but the close *)
    t.phase <- Finished;
    Flight.note ~arg:t.sid "serve.session.finish";
    { no_effect with finished = true }
  end
  else begin
    let eff = ingest t in
    if t.phase = Finished then eff
    else begin
      (* transport gone without CLOSE: record the analyzed-prefix
         offset before latching the torn verdict *)
      let v = Stream_replay.close t.replay in
      Audit.emit
        (Audit.Disconnect
           {
             session = t.sid;
             bytes_analyzed = v.Stream_replay.bytes_analyzed;
           });
      merge eff (finish_with_verdict t v " (client disconnected)")
    end
  end

let finish_overload t ~message = finish_code t Frame.Err_overload message

let check_timeout t ~now_ms =
  (* admin sessions are interactive probes — they neither stream nor
     hold budget, so the stream deadlines don't apply *)
  if t.phase = Finished || t.admin then None
  else
    let deadline_hit =
      match t.cfg.deadline_ms with
      | Some d -> now_ms - t.started >= d
      | None -> false
    in
    let idle_hit =
      match t.cfg.idle_ms with
      | Some d -> now_ms - t.last_activity >= d
      | None -> false
    in
    if deadline_hit then begin
      Audit.emit
        (Audit.Deadline { session = t.sid; age_ms = now_ms - t.started });
      Some
        (finish_code t Frame.Err_deadline
           (Printf.sprintf "session deadline (%d ms) exceeded"
              (Option.get t.cfg.deadline_ms)))
    end
    else if idle_hit then begin
      Audit.emit
        (Audit.Idle { session = t.sid; quiet_ms = now_ms - t.last_activity });
      Some
        (finish_code t Frame.Err_idle
           (Printf.sprintf "idle for %d ms" (now_ms - t.last_activity)))
    end
    else None
