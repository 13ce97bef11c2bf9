(* The five workloads. Each times only calls into public entry points:
   a registry detector driven by Serial_exec / Par_exec, the Recorder,
   the built racedetect binary run as a child process for replay, and the
   ingest Server through Loopback clients. A traced round repeats the
   untraced sample with every call into a layer timed, and compares the
   two within the round, so host drift between rounds cancels. *)

module Events = Sfr_runtime.Events
module Detector = Sfr_detect.Detector
module Workload = Sfr_workloads.Workload
module Metrics = Sfr_obs.Metrics
module Recorder = Sfr_eventlog.Recorder
module Server = Sfr_serve.Server
module Session = Sfr_serve.Session
module Loopback = Sfr_serve.Loopback
module Frame = Sfr_serve.Frame

let ns = 1e-9

(* The registry default, so a change to the default detector, OM backend
   or history mode is measured on the path users run. *)
let detector () =
  match Sfr_detect.Registry.find "sf-order" with
  | Some e -> e.Sfr_detect.Registry.make ()
  | None -> failwith "sf-order is not registered"

let paper name =
  match Sfr_workloads.Registry.find name with
  | Some w -> w
  | None -> failwith ("no workload " ^ name)

let clean_run (d : Detector.t) = Detector.racy_locations d = []

(* Counter deltas by name; 0 for a counter that never moved. *)
let counter delta name = float_of_int (Option.value ~default:0 (List.assoc_opt name delta))

let add_counters ctx delta names = List.iter (fun n -> Ctx.add ctx n (counter delta n)) names

let reach_counters =
  [ "reach.query.same_future"; "reach.query.cp"; "reach.query.gp"; "reach.table.alloc_words";
    "om.relabels"; "om.splits" ]

let history_counters =
  [ "history.lock.acquire"; "history.lock.contended"; "history.cas.retry";
    "history.write.fastpath"; "history.readers.insert"; "history.readers.evict" ]

(* Run [f] with counter and GC deltas taken around it, outside its timing;
   the GC figures are this domain's. *)
let with_deltas ctx f =
  Gc.full_major ();
  let m0 = Metrics.snapshot () and g0 = Sfr_obs.Prof.gc_snapshot () in
  let r = f () in
  add_counters ctx (Sfr_obs.Prof.gc_delta g0)
    [ "gc.minor_words"; "gc.major_words"; "gc.major_collections" ];
  (r, Metrics.since m0)

(* The timers' own cost, measured again before every traced sample: on a
   shared host it drifts by more than the residual it must explain. *)
let calibrate ctx =
  let cal = Probe.calibrate () in
  Ctx.add ctx "trace.timer_ns" cal.Probe.full;
  Ctx.add ctx "trace.timer_inside_ns" cal.Probe.inside;
  cal

(* A layer's time from its timer sums: the timers' inside cost removed. *)
let layer (cal : Probe.calibration) ~sum ~calls =
  (float_of_int sum -. (cal.Probe.inside *. float_of_int calls)) *. ns

(* [traced] is an operation's wall time with [calls] timed calls,
   [untraced] the same operation's in the same round. [parts] split the
   traced time, less the timers' full cost, into layers; what they leave
   is unattributed. With [workers] domains the layers are busy time summed
   over the domains, so they split [workers] times the wall time, and the
   remainder includes idle workers. *)
let attribute ?(workers = 1) ctx (cal : Probe.calibration) ~untraced ~traced ~calls parts =
  let w = float_of_int workers in
  let busy = (w *. traced) -. (cal.Probe.full *. float_of_int calls *. ns) in
  let unattributed = busy -. List.fold_left (fun a (_, s) -> a +. s) 0.0 parts in
  List.iter
    (fun (name, s) -> Ctx.add ctx name (100.0 *. s /. busy))
    (("unattributed.pct", unattributed) :: parts);
  Ctx.add ctx "unattributed_s" unattributed;
  Ctx.add ctx "trace.overhead_s" (traced -. untraced);
  Ctx.add ctx "trace.residual_pct" (100.0 *. ((busy /. w) -. untraced) /. untraced)

(* Events of one execution, counted the way the recorder counts them: one
   per callback. *)
let count_events exec program =
  let n = ref 0 in
  let null = Events.null in
  let cb =
    {
      Events.on_spawn = (fun s -> incr n; null.Events.on_spawn s);
      on_create = (fun s -> incr n; null.Events.on_create s);
      on_sync =
        (fun ~cur ~spawned_lasts ~created_firsts ->
          incr n;
          null.Events.on_sync ~cur ~spawned_lasts ~created_firsts);
      on_put = (fun _ -> incr n);
      on_get = (fun ~cur ~put -> incr n; null.Events.on_get ~cur ~put);
      on_returned = (fun ~cont:_ ~child_last:_ -> incr n);
      on_read = (fun _ _ -> incr n);
      on_write = (fun _ _ -> incr n);
      on_work = (fun _ _ -> incr n);
    }
  in
  exec cb ~root:Events.Unit_state program;
  !n

let serial cb ~root program = ignore (Sfr_runtime.Serial_exec.run cb ~root program)
let parallel_workers = 2
let parallel cb ~root program = ignore (Sfr_runtime.Par_exec.run ~workers:parallel_workers cb ~root program)

(* ------------------------------------------------------------------ *)
(* live-access, live-futures, live-parallel                             *)
(* ------------------------------------------------------------------ *)

type instance = { program : unit -> unit; check : unit -> bool; events : int }

(* [make ~round] instantiates the program of that round afresh. *)
type live = {
  make : round:int -> inject:bool -> instance;
  exec : Events.callbacks -> root:Events.state -> (unit -> unit) -> unit;
  workers : int;
  injectable : bool;
}

let paper_live name exec ~workers () =
  let w = paper name in
  let instantiate ~inject = w.Workload.instantiate ~inject_race:inject Workload.Default in
  let events = count_events serial (instantiate ~inject:false).Workload.program in
  let make ~round:_ ~inject =
    let i = instantiate ~inject in
    { program = i.Workload.program; check = i.Workload.verify; events }
  in
  ignore (detector ());
  { make; exec; workers; injectable = true }

(* Programs generated from different seeds differ in cost by up to a
   third, so a run takes four in turn, one per round, each generated
   afresh outside the timing. Their seeds are the first four of
   1000s, 1000s+1, ... whose programs reach the full operation count: the
   generator's task tree dies out early for some seeds (seed 24 yields two
   operations). A synthetic program has no reference output: its checksum
   under detection must equal that of an undetected run. *)
let programs_per_seed = 4
let synthetic_ops = 300_000

let synthetic_live ~seed () =
  let module S = Sfr_workloads.Synthetic in
  let generate seed = S.generate ~race_free:true ~seed ~ops:synthetic_ops ~depth:14 ~locs:64 () in
  let rec full_seeds candidate acc =
    if List.length acc = programs_per_seed then Array.of_list (List.rev acc)
    else
      let ops, _, _ = S.stats (generate candidate) in
      full_seeds (candidate + 1) (if ops * 10 >= synthetic_ops * 9 then candidate :: acc else acc)
  in
  let seeds = full_seeds (1000 * seed) [] in
  let reference =
    Array.map
      (fun seed ->
        let i = S.instantiate (generate seed) in
        let events = count_events serial i.S.program in
        (events, i.S.checksum ()))
      seeds
  in
  let make ~round ~inject:_ =
    let k = round mod programs_per_seed in
    let events, expected = reference.(k) in
    let i = S.instantiate (generate seeds.(k)) in
    { program = i.S.program; check = (fun () -> i.S.checksum () = expected); events }
  in
  ignore (detector ());
  { make; exec = serial; workers = 1; injectable = false }

let timed_exec ctx name l cb ~root inst =
  Ctx.span ctx name (fun () -> Ctx.time (fun () -> l.exec cb ~root inst.program)) |> snd

let live_round ctx l ~round =
  let make () = l.make ~round ~inject:false in
  let inst = make () and det = detector () in
  Gc.full_major ();
  let detect_s = timed_exec ctx "detect" l det.Detector.callbacks ~root:det.Detector.root inst in
  Ctx.op ctx (inst.check () && clean_run det) "detected execution";
  Ctx.add ctx "op_s" detect_s;
  Ctx.add ctx "events_per_s" (float_of_int inst.events /. detect_s);
  if ctx.Ctx.trace then begin
    (* Fig. 4 "base": the executor with no client *)
    let inst = make () in
    Gc.full_major ();
    let base = timed_exec ctx "base" l Events.null ~root:Events.Unit_state inst in
    Ctx.op ctx (inst.check ()) "undetected execution";
    Ctx.add ctx "runtime.base_s" base;
    (* Fig. 4 "reach": structure only, accesses ignored *)
    let inst = make () and det = detector () in
    Gc.full_major ();
    let reach =
      timed_exec ctx "reach-only" l (Probe.without_accesses det.Detector.callbacks)
        ~root:det.Detector.root inst
    in
    Ctx.op ctx (inst.check ()) "reach-only execution";
    Ctx.add ctx "reach.only_s" reach;
    (* full detection with every callback timed *)
    let cal = calibrate ctx in
    let inst = make () and det = detector () in
    let acc = Probe.create () in
    let traced, delta =
      with_deltas ctx (fun () ->
          timed_exec ctx "traced" l (Probe.wrap acc det.Detector.callbacks) ~root:det.Detector.root inst)
    in
    Ctx.op ctx (inst.check () && clean_run det) "traced execution";
    let f = Probe.total acc in
    let access_calls = f Probe.read_calls + f Probe.write_calls in
    let access = layer cal ~sum:(f Probe.read_ns + f Probe.write_ns) ~calls:access_calls in
    let structural = layer cal ~sum:(f Probe.struct_ns) ~calls:(f Probe.struct_calls) in
    let calls = access_calls + f Probe.struct_calls in
    Ctx.add ctx "runtime.self_s"
      ((float_of_int l.workers *. traced) -. (cal.Probe.full *. float_of_int calls *. ns) -. access
     -. structural);
    Ctx.add ctx "reach.struct_s" structural;
    Ctx.add ctx "reach.struct_calls" (float_of_int (f Probe.struct_calls));
    Ctx.add ctx "detect.access_s" access;
    Ctx.add ctx "detect.access_calls" (float_of_int access_calls);
    Ctx.add ctx "detect.access_ns" (access /. ns /. float_of_int (max 1 access_calls));
    Ctx.add ctx "detect.queries" (float_of_int (det.Detector.queries ()));
    Ctx.add ctx "reach.words" (float_of_int (det.Detector.reach_words ()));
    Ctx.add ctx "detect.history_words" (float_of_int (det.Detector.history_words ()));
    Ctx.add ctx "detect.max_readers" (float_of_int (det.Detector.max_readers ()));
    add_counters ctx delta ([ "runtime.tasks"; "runtime.steals" ] @ reach_counters @ history_counters);
    Ctx.add ctx "history.fastpath_ratio"
      (counter delta "history.write.fastpath" /. float_of_int (max 1 (f Probe.write_calls)));
    attribute ~workers:l.workers ctx cal ~untraced:detect_s ~traced ~calls
      [ ("runtime.pct", float_of_int l.workers *. base); ("reach.pct", structural);
        ("detect.pct", access) ]
  end

let run_live ctx setup =
  let round = ref 0 in
  let l =
    Ctx.run ctx ~setup ~round:(fun l ->
        incr round;
        live_round ctx l ~round:!round)
  in
  if l.injectable then begin
    let inst = l.make ~round:0 ~inject:true and det = detector () in
    l.exec det.Detector.callbacks ~root:det.Detector.root inst.program;
    Ctx.op ctx (not (clean_run det)) "injected race found"
  end

(* ------------------------------------------------------------------ *)
(* record-replay                                                        *)
(* ------------------------------------------------------------------ *)

let read_bytes path = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all)

(* Record one execution of [program] to [path]; [wrap] may interpose on
   the recorder's callbacks. Returns the recorder's stats and the times
   of the recorded execution (creation included) and of [close]. *)
let record ?(wrap = Fun.id) ~path program =
  let r, run =
    Ctx.time (fun () ->
        let r, cb, root = Recorder.create ~path () in
        serial (wrap cb) ~root program;
        r)
  in
  let stats, close = Ctx.time (fun () -> Recorder.close r) in
  (stats, run, close)

(* Run racedetect with [args] to completion, its output in [work_dir];
   returns its exit code. *)
let child ctx args =
  let out = Filename.concat ctx.Ctx.work_dir "child.out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.create_process ctx.Ctx.racedetect
          (Array.of_list (ctx.Ctx.racedetect :: args))
          Unix.stdin fd fd)
  in
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED c -> c
    | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> -1
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

let timed_child ctx name args = Ctx.span ctx name (fun () -> Ctx.time (fun () -> child ctx args))

(* Stream_reader over a whole log image, fed in 4 KiB slices (the size of
   a Loopback DATA frame) and drained after each: the decode share of a
   replay or a session. *)
let decode image ~events =
  let r = Sfr_eventlog.Stream_reader.create () in
  let len = Bytes.length image in
  let pos = ref 0 and ok = ref true in
  while !ok && !pos < len do
    let n = min 4096 (len - !pos) in
    Sfr_eventlog.Stream_reader.feed r image ~pos:!pos ~len:n;
    pos := !pos + n;
    ok := Result.is_ok (Sfr_eventlog.Stream_reader.drain r)
  done;
  match Sfr_eventlog.Stream_reader.finish r with
  | Ok s -> s.Sfr_eventlog.Stream_reader.s_events = events
  | Error _ -> false

let timed_decode ctx image ~events =
  let ok, decode_s = Ctx.span ctx "decode" (fun () -> Ctx.time (fun () -> decode image ~events)) in
  Ctx.op ctx ok "decode";
  Ctx.add ctx "eventlog.decode_s" decode_s;
  decode_s

type rr = { hw : inject:bool -> Workload.instance; rr_events : int }

let record_replay_setup ctx () =
  let w = paper "hw" in
  let hw ~inject = w.Workload.instantiate ~inject_race:inject Workload.Default in
  let stats, _, _ = record ~path:(Ctx.log_path ctx) (hw ~inject:false).Workload.program in
  { hw; rr_events = stats.Recorder.events }

let record_replay_round ctx rr =
  let inst = rr.hw ~inject:false in
  let log = Ctx.log_path ctx in
  Gc.full_major ();
  let stats, run, close = Ctx.span ctx "record" (fun () -> record ~path:log inst.Workload.program) in
  let record_s = run +. close in
  Ctx.op ctx (inst.Workload.verify () && stats.Recorder.events = rr.rr_events) "record";
  let code, replay_s = timed_child ctx "replay" [ "replay"; log ] in
  Ctx.op ctx (code = 0) "replay";
  let code, sharded_s = timed_child ctx "replay-sharded" [ "replay"; "--shards"; "2"; log ] in
  Ctx.op ctx (code = 0) "sharded replay";
  let op = record_s +. replay_s +. sharded_s in
  Ctx.add ctx "record_s" record_s;
  Ctx.add ctx "replay_s" replay_s;
  Ctx.add ctx "replay_sharded_s" sharded_s;
  Ctx.add ctx "op_s" op;
  Ctx.add ctx "events_per_s" (float_of_int rr.rr_events /. op);
  if ctx.Ctx.trace then begin
    let inst = rr.hw ~inject:false in
    Gc.full_major ();
    let (), base =
      Ctx.span ctx "base" (fun () ->
          Ctx.time (fun () -> serial Events.null ~root:Events.Unit_state inst.Workload.program))
    in
    Ctx.op ctx (inst.Workload.verify ()) "undetected execution";
    let cal = calibrate ctx in
    let inst = rr.hw ~inject:false in
    let log = Ctx.log_path ctx in
    let acc = Probe.create () in
    let (stats, run, close), _ =
      with_deltas ctx (fun () ->
          Ctx.span ctx "traced record" (fun () ->
              record ~wrap:(Probe.wrap ~all:true acc) ~path:log inst.Workload.program))
    in
    Ctx.op ctx (inst.Workload.verify () && stats.Recorder.events = rr.rr_events) "traced record";
    let decode_s = timed_decode ctx (read_bytes log) ~events:rr.rr_events in
    let code, floor = timed_child ctx "process floor" [ "detectors"; "--names" ] in
    Ctx.op ctx (code = 0) "process floor";
    let calls = Probe.total acc Probe.struct_calls in
    let callbacks = layer cal ~sum:(Probe.total acc Probe.struct_ns) ~calls in
    Ctx.add ctx "runtime.base_s" base;
    Ctx.add ctx "runtime.self_s" (run -. (cal.Probe.full *. float_of_int calls *. ns) -. callbacks);
    Ctx.add ctx "eventlog.record_cb_s" callbacks;
    Ctx.add ctx "eventlog.close_s" close;
    Ctx.add ctx "eventlog.events" (float_of_int stats.Recorder.events);
    Ctx.add ctx "eventlog.bytes_per_event"
      (float_of_int stats.Recorder.bytes /. float_of_int (max 1 stats.Recorder.events));
    Ctx.add ctx "replay.process_floor_s" floor;
    Ctx.add ctx "replay.engine_s" (replay_s -. decode_s -. floor);
    Ctx.add ctx "replay.sharded_engine_s" (sharded_s -. decode_s -. floor);
    (* the replay children are not traced: the round's own times stand in
       the operation's traced total *)
    let replays = replay_s +. sharded_s in
    attribute ctx cal ~untraced:op ~traced:(run +. close +. replays) ~calls
      [ ("runtime.pct", base); ("eventlog.pct", callbacks +. close +. (2.0 *. decode_s));
        ("replay.pct", replays -. (2.0 *. decode_s)) ]
  end

let run_record_replay ctx =
  let rr = Ctx.run ctx ~setup:(record_replay_setup ctx) ~round:(record_replay_round ctx) in
  let inst = rr.hw ~inject:true and log = Ctx.log_path ctx in
  ignore (record ~path:log inst.Workload.program);
  Ctx.op ctx (child ctx [ "replay"; log ] = 1) "injected race found by replay"

(* ------------------------------------------------------------------ *)
(* serve-ingest                                                         *)
(* ------------------------------------------------------------------ *)

let clients = 2
let sessions_per_client = 5

let server_config =
  {
    Server.session = Session.default_config;
    global_budget = 64 * 1024 * 1024;
    overload = Server.Shed;
    pool_domains = 0;
    defer_ingest = false;
  }

type session = {
  latency : float;
  ok : bool;
  hello_ns : int;
  pump_ns : int;
  close_ns : int;
  calls : int;
  stalls : int;
}

(* One closed-loop session: HELLO, DATA as credit allows, CLOSE; the
   verdict arrives before [close] returns because detection is inline.
   [timed] also times each Loopback call. *)
let session ctx ~timed server image ~expect =
  let clock () = if timed then Ctx.now () else 0 in
  Ctx.span ctx "session" (fun () ->
      let t0 = Ctx.now () in
      let c = Loopback.connect server in
      let h0 = clock () in
      Loopback.hello c;
      let hello_ns = clock () - h0 in
      let len = Bytes.length image in
      let sent = ref 0 and stalls = ref 0 and pump_ns = ref 0 and calls = ref 2 in
      while !sent < len && Loopback.last_terminal c = None && !stalls < 1_000_000 do
        let p0 = clock () in
        let n = Loopback.pump c image ~pos:!sent ~len:(len - !sent) in
        pump_ns := !pump_ns + (clock () - p0);
        incr calls;
        if n = 0 then begin
          incr stalls;
          Domain.cpu_relax ()
        end
        else sent := !sent + n
      done;
      let c0 = clock () in
      Loopback.close c;
      let close_ns = clock () - c0 in
      let latency = Ctx.seconds_since t0 in
      let ok = match Loopback.last_terminal c with Some v -> expect v | None -> false in
      { latency; ok; hello_ns; pump_ns = !pump_ns; close_ns; calls = !calls; stalls = !stalls })

let clean_verdict ~events = function
  | Frame.Verdict { code = Frame.Ok_clean; races = 0; events = e; _ } -> e = events
  | _ -> false

(* A sample: [clients] clients, one on this domain and one on another,
   each running [sessions_per_client] sessions back to back. *)
let serve_sample ctx ~timed image ~events =
  let server = Server.create server_config in
  Gc.full_major ();
  let run () =
    List.init sessions_per_client (fun _ ->
        session ctx ~timed server image ~expect:(clean_verdict ~events))
  in
  let (mine, theirs), wall =
    Ctx.time (fun () ->
        let d = Domain.spawn run in
        let mine = run () in
        (mine, Domain.join d))
  in
  Server.shutdown server;
  let ss = mine @ theirs in
  List.iter (fun s -> Ctx.op ctx s.ok "session") ss;
  (ss, wall)

type serve = { image : Bytes.t; s_events : int }

let serve_setup ctx ~inject () =
  let w = paper "mm" in
  let inst = w.Workload.instantiate ~inject_race:inject Workload.Default in
  let path = Ctx.log_path ctx in
  let stats, _, _ = record ~path inst.Workload.program in
  let image = read_bytes path in
  Server.shutdown (Server.create server_config);
  { image; s_events = stats.Recorder.events }

let serve_round ctx sv =
  let total = float_of_int (clients * sessions_per_client * sv.s_events) in
  let untraced, wall =
    Ctx.span ctx "sample" (fun () -> serve_sample ctx ~timed:false sv.image ~events:sv.s_events)
  in
  List.iter (fun s -> Ctx.add ctx "op_s" s.latency) untraced;
  Ctx.add ctx "events_per_s" (total /. wall);
  if ctx.Ctx.trace then begin
    let decode_s = timed_decode ctx sv.image ~events:sv.s_events in
    let cal = calibrate ctx in
    let (traced, _), delta =
      with_deltas ctx (fun () ->
          Ctx.span ctx "traced sample" (fun () ->
              serve_sample ctx ~timed:true sv.image ~events:sv.s_events))
    in
    let untraced = Summary.median (List.map (fun s -> s.latency) untraced) in
    List.iter
      (fun s ->
        let hello = layer cal ~sum:s.hello_ns ~calls:1 and close = layer cal ~sum:s.close_ns ~calls:1 in
        let pump = layer cal ~sum:s.pump_ns ~calls:(s.calls - 2) in
        Ctx.add ctx "serve.hello_s" hello;
        Ctx.add ctx "serve.pump_s" pump;
        Ctx.add ctx "serve.close_s" close;
        attribute ctx cal ~untraced ~traced:s.latency ~calls:s.calls
          [ ("eventlog.pct", decode_s); ("serve.pct", hello +. pump +. close -. decode_s) ])
      traced;
    Ctx.add ctx "serve.credit_stalls" (float_of_int (List.fold_left (fun a s -> a + s.stalls) 0 traced));
    add_counters ctx delta
      ([ "serve.frames.in"; "serve.bytes.in"; "serve.credit.granted" ] @ reach_counters @ history_counters)
  end

let run_serve ctx =
  ignore (Ctx.run ctx ~setup:(serve_setup ctx ~inject:false) ~round:(serve_round ctx));
  Ctx.add ctx "session_p90_s" (Summary.percentile 90 (Ctx.samples ctx "op_s"));
  let bad = serve_setup ctx ~inject:true () in
  let server = Server.create server_config in
  let s =
    session ctx ~timed:false server bad.image ~expect:(function
      | Frame.Verdict { code = Frame.Ok_races; races; _ } -> races > 0
      | _ -> false)
  in
  Server.shutdown server;
  Ctx.op ctx s.ok "injected race found by serve"

(* ------------------------------------------------------------------ *)

let all =
  [
    ("live-access", fun ctx -> run_live ctx (paper_live "sort" serial ~workers:1));
    ("live-futures", fun ctx -> run_live ctx (synthetic_live ~seed:ctx.Ctx.seed));
    ("live-parallel", fun ctx -> run_live ctx (paper_live "sort" parallel ~workers:parallel_workers));
    ("record-replay", run_record_replay);
    ("serve-ingest", run_serve);
  ]
