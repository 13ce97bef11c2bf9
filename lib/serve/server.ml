module Metrics = Sfr_obs.Metrics
module Flight = Sfr_obs.Flight
module Telemetry = Sfr_obs.Telemetry

let m_opened = Metrics.counter "serve.sessions.opened"
let m_finished = Metrics.counter "serve.sessions.finished"
let m_racy = Metrics.counter "serve.sessions.racy"
let m_shed_sessions = Metrics.counter "serve.shed.sessions"
let m_shed_bytes = Metrics.counter "serve.shed.bytes"
let m_block_rejects = Metrics.counter "serve.block.rejects"
let m_park_transitions = Metrics.counter "serve.park.transitions"
let m_deadline = Metrics.counter "serve.timeouts.deadline"
let m_idle = Metrics.counter "serve.timeouts.idle"
let m_disconnects = Metrics.counter "serve.disconnects"
let m_queued_hw = Metrics.counter ~kind:`Max "serve.queued.bytes"

type overload = Shed | Park | Block

let overload_to_string = function
  | Shed -> "shed"
  | Park -> "park"
  | Block -> "block"

let overload_of_string = function
  | "shed" -> Some Shed
  | "park" -> Some Park
  | "block" -> Some Block
  | _ -> None

type config = {
  session : Session.config;
  global_budget : int;
  overload : overload;
  pool_domains : int;
  defer_ingest : bool;
}

let default_config =
  {
    session = Session.default_config;
    global_budget = 4 * 1024 * 1024;
    overload = Shed;
    pool_domains = 0;
    defer_ingest = false;
  }

exception Fatal of string

let () =
  Printexc.register_printer (function
    | Fatal msg -> Some (Printf.sprintf "Sfr_serve.Server.Fatal(%s)" msg)
    | _ -> None)

let with_lock mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* -- the ingest pool ----------------------------------------------------- *)

(* A plain mutex/condvar job queue over Domain.spawn workers. Jobs are
   session-drain loops: each loops until its session's queue is empty,
   so the queue never holds more than one job per connection. *)
type pool = {
  jobs : (unit -> unit) Queue.t;
  pmu : Mutex.t;
  work : Condition.t;  (** signaled on submit and stop *)
  idle : Condition.t;  (** signaled when a worker finishes a job *)
  mutable running : int;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

let pool_worker p () =
  Metrics.domain_enter ();
  let continue_ = ref true in
  while !continue_ do
    Mutex.lock p.pmu;
    while Queue.is_empty p.jobs && not p.stop do
      Condition.wait p.work p.pmu
    done;
    if p.stop && Queue.is_empty p.jobs then begin
      Mutex.unlock p.pmu;
      continue_ := false
    end
    else begin
      let job = Queue.pop p.jobs in
      p.running <- p.running + 1;
      Mutex.unlock p.pmu;
      (try job () with _ -> () (* isolation: a job must not kill the pool *));
      Mutex.lock p.pmu;
      p.running <- p.running - 1;
      Condition.broadcast p.idle;
      Mutex.unlock p.pmu
    end
  done;
  Metrics.domain_exit ()

let pool_create n =
  let p =
    {
      jobs = Queue.create ();
      pmu = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      running = 0;
      stop = false;
      workers = [];
    }
  in
  p.workers <- List.init n (fun _ -> Domain.spawn (pool_worker p));
  p

let pool_submit p job =
  Mutex.lock p.pmu;
  Queue.push job p.jobs;
  Condition.signal p.work;
  Mutex.unlock p.pmu

let pool_quiesce p =
  Mutex.lock p.pmu;
  while not (Queue.is_empty p.jobs && p.running = 0) do
    Condition.wait p.idle p.pmu
  done;
  Mutex.unlock p.pmu

let pool_shutdown p =
  Mutex.lock p.pmu;
  p.stop <- true;
  Condition.broadcast p.work;
  Mutex.unlock p.pmu;
  List.iter Domain.join p.workers;
  p.workers <- []

(* -- the server ---------------------------------------------------------- *)

type conn = {
  cmu : Mutex.t;  (** serializes session access and [send] *)
  send : Bytes.t -> unit;
  mutable session : Session.t option;  (** [None] once reaped *)
  mutable busy : bool;  (** an ingest job is scheduled or running *)
  mutable gone : bool;  (** transport reported disconnect *)
}

type t = {
  cfg : config;
  now_ms : unit -> int;
  smu : Mutex.t;  (** table, ids, budget, park state, outcomes *)
  mutable conns : conn list;
  mutable next_sid : int;
  mutable global_queued : int;
  mutable is_parked : bool;
  mutable outcomes_rev : Session.outcome list;
  pool : pool option;
  mutable stopped : bool;
}

(* Crash-hook registry: Flight hooks cannot be removed, so one hook is
   registered at module load and walks whichever servers are live. *)
let live : t list ref = ref []
let live_mu = Mutex.create ()

let dump_sessions t =
  (* Crash path: read without taking locks — a torn line in a post-
     mortem dump beats deadlocking inside the dumper. *)
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "serve: queued=%dB budget=%dB policy=%s parked=%b\n"
       t.global_queued t.cfg.global_budget
       (overload_to_string t.cfg.overload)
       t.is_parked);
  List.iter
    (fun c ->
      match c.session with
      | None -> ()
      | Some s ->
          Buffer.add_string buf
            (Printf.sprintf
               "serve: session %d %s queued=%dB busy=%b gone=%b last_ms=%d\n"
               (Session.id s)
               (if Session.finished s then "finished"
                else if Session.awaiting_hello s then "hello"
                else "streaming")
               (Session.queued_bytes s) c.busy c.gone
               (Session.last_activity_ms s)))
    t.conns;
  Buffer.contents buf

let () =
  Flight.add_crash_hook (fun () ->
      let servers = with_lock live_mu (fun () -> !live) in
      List.iter
        (fun t ->
          prerr_string (dump_sessions t);
          List.iter
            (fun c ->
              match c.session with
              | Some s -> Flight.note ~arg:(Session.id s) "serve.crash.session"
              | None -> ())
            t.conns)
        servers;
      if servers <> [] then begin
        (* recent operational history: telemetry marks (what phases the
           daemon went through) and the audit tail (which sessions were
           in flight and why they ended) *)
        let marks =
          List.concat_map (fun (s : Telemetry.sample) -> s.marks)
            (Telemetry.samples ())
        in
        if marks <> [] then
          prerr_string
            (Printf.sprintf "serve: telemetry marks: %s\n"
               (String.concat ", " marks));
        prerr_string (Audit.tail_to_text ())
      end)

let default_clock () =
  let t0 = Sfr_obs.Prof.now_ns () in
  fun () -> (Sfr_obs.Prof.now_ns () - t0) / 1_000_000

let validate (cfg : config) =
  let s = cfg.session in
  if cfg.global_budget < 1 then Error "global_budget must be >= 1"
  else if cfg.pool_domains < 0 || cfg.pool_domains > Sfr_runtime.Par_exec.max_workers
  then
    Error
      (Printf.sprintf "pool_domains must be in 0..%d"
         Sfr_runtime.Par_exec.max_workers)
  else if s.Session.credit_window < 1 then Error "credit_window must be >= 1"
  else Ok ()

let create ?now_ms cfg =
  (match validate cfg with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Server.create: " ^ msg));
  let t =
    {
      cfg;
      now_ms = (match now_ms with Some f -> f | None -> default_clock ());
      smu = Mutex.create ();
      conns = [];
      next_sid = 0;
      global_queued = 0;
      is_parked = false;
      outcomes_rev = [];
      pool =
        (if cfg.pool_domains = 0 then None
         else Some (pool_create cfg.pool_domains));
      stopped = false;
    }
  in
  with_lock live_mu (fun () -> live := t :: !live);
  t

let send_frames conn frames =
  (* caller holds conn.cmu *)
  if frames <> [] && not conn.gone then begin
    let buf = Buffer.create 64 in
    List.iter (Frame.encode buf) frames;
    conn.send (Buffer.to_bytes buf)
  end

(* Settle an effect against the global budget; returns the follow-up
   action the caller must apply OUTSIDE the server lock (overload
   handling touches per-connection locks). *)
type post = Nothing | Do_shed of conn | Set_credit of conn list * bool

let record_outcome t (s : Session.t) =
  match Session.outcome s with
  | None when Session.admin_only s ->
      (* an admin session finishes without an outcome by design — it
         never streamed and must not count toward served sessions *)
      ()
  | None ->
      Flight.crash_dump ~reason:"serve: finished session without outcome";
      raise (Fatal "finished session without outcome")
  | Some o ->
      t.outcomes_rev <- o :: t.outcomes_rev;
      Metrics.incr m_finished;
      if o.Session.code = Frame.Ok_races then Metrics.incr m_racy

let settle t conn (eff : Session.effect_) =
  if eff.Session.send = [] && eff.Session.accepted = 0
     && eff.Session.released = 0 && not eff.Session.finished
  then Nothing
  else
    with_lock t.smu (fun () ->
        t.global_queued <-
          t.global_queued + eff.Session.accepted - eff.Session.released;
        if t.global_queued < 0 then begin
          Flight.crash_dump ~reason:"serve: negative global queue";
          raise (Fatal "negative global byte accounting")
        end;
        Metrics.add m_queued_hw t.global_queued;
        if eff.Session.finished then begin
          (match conn.session with
          | Some s when Session.finished s -> record_outcome t s
          | _ -> ());
          t.conns <- List.filter (fun c -> c != conn) t.conns
        end;
        (* Park hysteresis: freeze credit above the budget, thaw below
           half of it. *)
        if t.cfg.overload = Park then begin
          if (not t.is_parked) && t.global_queued > t.cfg.global_budget
          then begin
            t.is_parked <- true;
            Metrics.incr m_park_transitions;
            Audit.emit
              (Audit.Park
                 { queued = t.global_queued; budget = t.cfg.global_budget });
            Set_credit (t.conns, false)
          end
          else if t.is_parked && t.global_queued <= t.cfg.global_budget / 2
          then begin
            t.is_parked <- false;
            Metrics.incr m_park_transitions;
            Audit.emit
              (Audit.Thaw
                 { queued = t.global_queued; budget = t.cfg.global_budget });
            Set_credit (t.conns, true)
          end
          else Nothing
        end
        else if
          t.cfg.overload = Shed
          && eff.Session.accepted > 0
          && t.global_queued > t.cfg.global_budget
          && not eff.Session.finished
        then Do_shed conn
        else Nothing)

let over_budget t =
  with_lock t.smu (fun () -> t.global_queued > t.cfg.global_budget)

(* The universal follow-up driver: apply the overload action a settled
   effect demanded. Each effect is settled under the [conn.cmu] that
   produced it (cmu -> smu), so one connection's accepts and releases
   reach [global_queued] in the order they happened: settled after the
   lock, a drain's release could overtake the accept it drains and
   drive the global queue negative. Shedding produces a second effect
   that is settled the same way (it only releases bytes, so recursion
   terminates immediately). *)
let rec apply_post t post =
  match post with
  | Nothing -> ()
  | Set_credit (conns, v) ->
      List.iter
        (fun c ->
          with_lock c.cmu (fun () ->
              match c.session with
              | Some s when not (Session.finished s) ->
                  Session.set_grant_credit s v;
                  if v then begin
                    (* catch-up grant: drains during the park earned no
                       credit, so clients may be stalled at zero *)
                    let eff = Session.replenish_credit s in
                    send_frames c eff.Session.send
                  end
              | _ -> ()))
        conns
  | Do_shed conn ->
      let eff =
        with_lock conn.cmu (fun () ->
            match conn.session with
            | Some s when not (Session.finished s) ->
                let queued = Session.queued_bytes s in
                let eff =
                  Session.finish_overload s
                    ~message:
                      (Printf.sprintf
                         "global byte budget (%dB) exceeded; retry later"
                         t.cfg.global_budget)
                in
                Metrics.incr m_shed_sessions;
                Metrics.add m_shed_bytes queued;
                Audit.emit
                  (Audit.Shed { session = Session.id s; evicted = queued });
                send_frames conn eff.Session.send;
                Some (settle t conn eff)
            | _ -> None)
      in
      Option.iter (apply_post t) eff

(* Schedule (or run inline) the drain loop for a connection. *)
let rec drain_loop t conn =
  let continue_ =
    with_lock conn.cmu (fun () ->
        match conn.session with
        | Some s when Session.needs_ingest s ->
            let eff = Session.ingest s in
            send_frames conn eff.Session.send;
            Some (settle t conn eff)
        | Some s when conn.gone && not (Session.finished s) ->
            let eff = Session.on_disconnect s in
            send_frames conn eff.Session.send;
            Some (settle t conn eff)
        | _ ->
            conn.busy <- false;
            None)
  in
  match continue_ with
  | Some post ->
      apply_post t post;
      drain_loop t conn
  | None -> ()

let pump t conn =
  let schedule =
    with_lock conn.cmu (fun () ->
        let wanted =
          match conn.session with
          | Some s ->
              (not (Session.finished s))
              && (Session.needs_ingest s || conn.gone)
          | None -> false
        in
        if wanted && not conn.busy then begin
          conn.busy <- true;
          true
        end
        else false)
  in
  if schedule then
    match t.pool with
    | None -> drain_loop t conn
    | Some p -> pool_submit p (fun () -> drain_loop t conn)

let connect t ~send =
  let now = t.now_ms () in
  let sid, parked_now =
    with_lock t.smu (fun () ->
        let sid = t.next_sid in
        t.next_sid <- sid + 1;
        (sid, t.is_parked))
  in
  Metrics.incr m_opened;
  Audit.emit (Audit.Session_open { session = sid });
  let s = Session.create ~id:sid ~now_ms:now t.cfg.session in
  if parked_now then Session.set_grant_credit s false;
  let conn =
    { cmu = Mutex.create (); send; session = Some s; busy = false; gone = false }
  in
  with_lock t.smu (fun () -> t.conns <- conn :: t.conns);
  conn

let session_id conn =
  with_lock conn.cmu (fun () -> Option.map Session.id conn.session)

(* -- the admin plane ----------------------------------------------------- *)

(* Session fields are read under smu only (not each conn's cmu), the
   same single-torn-read tolerance as [dump_sessions]: the admin plane
   must never contend with, or deadlock against, the data plane. *)
let stats_json t =
  let now = t.now_ms () in
  let b = Buffer.create 512 in
  with_lock t.smu (fun () ->
      Printf.bprintf b
        "{\"server\":{\"policy\":%S,\"parked\":%b,\"budget_bytes\":%d,\"queued_bytes\":%d,\"headroom_bytes\":%d,\"finished_sessions\":%d,\"audit_records\":%d},\"sessions\":["
        (overload_to_string t.cfg.overload)
        t.is_parked t.cfg.global_budget t.global_queued
        (max 0 (t.cfg.global_budget - t.global_queued))
        (List.length t.outcomes_rev)
        (Audit.record_count ());
      let first = ref true in
      List.iter
        (fun c ->
          match c.session with
          | None -> ()
          | Some s ->
              if not !first then Buffer.add_char b ',';
              first := false;
              Printf.bprintf b
                "{\"session\":%d,\"phase\":%S,\"queued_bytes\":%d,\"credit\":%d,\"age_ms\":%d,\"idle_ms\":%d,\"busy\":%b,\"gone\":%b}"
                (Session.id s) (Session.phase_name s)
                (Session.queued_bytes s) (Session.credit s)
                (now - Session.started_ms s)
                (now - Session.last_activity_ms s)
                c.busy c.gone)
        t.conns);
  Buffer.add_string b "]}";
  Buffer.contents b

let health t =
  with_lock t.smu (fun () ->
      let healthy =
        (not t.is_parked) && t.global_queued <= t.cfg.global_budget
      in
      let detail =
        Printf.sprintf "policy=%s queued=%dB budget=%dB sessions=%d parked=%b"
          (overload_to_string t.cfg.overload)
          t.global_queued t.cfg.global_budget (List.length t.conns) t.is_parked
      in
      (healthy, detail))

let prometheus t =
  let active, queued, headroom, parked_now =
    with_lock t.smu (fun () ->
        ( List.length
            (List.filter
               (fun c ->
                 match c.session with
                 | Some s -> not (Session.finished s)
                 | None -> false)
               t.conns),
          t.global_queued,
          max 0 (t.cfg.global_budget - t.global_queued),
          t.is_parked ))
  in
  Telemetry.render_prometheus
    ~gauges:
      [
        ("serve.sessions.active", active);
        ("serve.budget.bytes", t.cfg.global_budget);
        ("serve.queued.bytes.now", queued);
        ("serve.budget.headroom.bytes", headroom);
        ("serve.parked", if parked_now then 1 else 0);
      ]
    ()

let admin_reply t (req : Session.admin_request) =
  match req with
  | Session.Admin_stats -> Frame.Stats_reply (stats_json t)
  | Session.Admin_health ->
      let healthy, detail = health t in
      Frame.Health_reply { healthy; detail }
  | Session.Admin_metrics -> Frame.Metrics_reply (prometheus t)

let on_bytes t conn bytes ~pos ~len =
  let now = t.now_ms () in
  let eff =
    with_lock conn.cmu (fun () ->
        match conn.session with
        | Some s when not (Session.finished s) ->
            (* Block policy: a HELLO arriving while over budget is
               refused before it can open a stream. *)
            if
              t.cfg.overload = Block && Session.awaiting_hello s
              && over_budget t
            then begin
              Metrics.incr m_block_rejects;
              Audit.emit (Audit.Block { session = Session.id s });
              let eff =
                Session.finish_overload s
                  ~message:
                    (Printf.sprintf
                       "server over byte budget (%dB); retry later"
                       t.cfg.global_budget)
              in
              send_frames conn eff.Session.send;
              Some (eff, settle t conn eff)
            end
            else begin
              let eff = Session.on_bytes s ~now_ms:now bytes ~pos ~len in
              send_frames conn eff.Session.send;
              Some (eff, settle t conn eff)
            end
        | _ -> None)
  in
  match eff with
  | None -> ()
  | Some (eff, post) ->
      apply_post t post;
      (* Admin replies are built outside conn.cmu (stats take the server
         lock; cmu -> smu is the allowed order but holding cmu across
         the whole table walk would stall this connection's data plane)
         and sent under it. *)
      if eff.Session.admin <> [] then begin
        let frames = List.map (admin_reply t) eff.Session.admin in
        with_lock conn.cmu (fun () -> send_frames conn frames)
      end;
      if not t.cfg.defer_ingest then pump t conn

let on_disconnect t conn =
  Metrics.incr m_disconnects;
  with_lock conn.cmu (fun () -> conn.gone <- true);
  if not t.cfg.defer_ingest then pump t conn

let tick t =
  let now = t.now_ms () in
  let conns = with_lock t.smu (fun () -> t.conns) in
  List.iter
    (fun conn ->
      let eff =
        with_lock conn.cmu (fun () ->
            match conn.session with
            | Some s when not (Session.finished s) -> (
                match Session.check_timeout s ~now_ms:now with
                | Some eff ->
                    (match Session.outcome s with
                    | Some o when o.Session.code = Frame.Err_deadline ->
                        Metrics.incr m_deadline
                    | Some o when o.Session.code = Frame.Err_idle ->
                        Metrics.incr m_idle
                    | _ -> ());
                    send_frames conn eff.Session.send;
                    Some (settle t conn eff)
                | None -> None)
            | _ -> None)
      in
      Option.iter (apply_post t) eff)
    conns;
  if t.cfg.defer_ingest then List.iter (fun conn -> pump t conn) conns

let quiesce t = match t.pool with None -> () | Some p -> pool_quiesce p
let inline t = t.pool = None && not t.cfg.defer_ingest

let shutdown t =
  if not t.stopped then begin
    t.stopped <- true;
    quiesce t;
    (match t.pool with None -> () | Some p -> pool_shutdown p);
    with_lock live_mu (fun () -> live := List.filter (fun x -> x != t) !live)
  end

let outcomes t = with_lock t.smu (fun () -> List.rev t.outcomes_rev)

let active_sessions t =
  with_lock t.smu (fun () ->
      List.length
        (List.filter
           (fun c ->
             match c.session with
             | Some s -> not (Session.finished s)
             | None -> false)
           t.conns))

let queued_bytes t = with_lock t.smu (fun () -> t.global_queued)
let parked t = with_lock t.smu (fun () -> t.is_parked)
