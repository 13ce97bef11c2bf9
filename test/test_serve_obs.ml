(* Operational observability of the serve layer.

   The contract under test: (1) the admin-plane frames round-trip the
   codec like every other frame; (2) a connection that only ever sends
   admin requests gets live answers (health bit, session-table JSON, a
   grammar-clean Prometheus scrape) and vanishes without an outcome,
   leaving the server serving; (3) admin requests are also answerable
   mid-stream, while a client-sent admin *reply* is a protocol error;
   (4) the audit log written across a concurrent soak — healthy, torn
   and shed sessions — passes its own lint and contains the lifecycle
   records the soak actually exercised, with exact shed/disconnect
   payloads; (5) the trace spans emitted by a serving daemon are
   well-nested per track, carry session correlation args, and each
   session's lifecycle span (on its own synthetic track) contains that
   session's ingest spans; (6) the lint rejects each malformation class
   with a line-numbered diagnostic. *)

module Log_format = Sfr_eventlog.Log_format
module Recorder = Sfr_eventlog.Recorder
module Serial_exec = Sfr_runtime.Serial_exec
module Workload = Sfr_workloads.Workload
module Registry = Sfr_workloads.Registry
module Synthetic = Sfr_workloads.Synthetic
module Metrics = Sfr_obs.Metrics
module Telemetry = Sfr_obs.Telemetry
module Trace_event = Sfr_obs.Trace_event
module Json_min = Sfr_obs.Json_min
module Frame = Sfr_serve.Frame
module Session = Sfr_serve.Session
module Server = Sfr_serve.Server
module Loopback = Sfr_serve.Loopback
module Audit = Sfr_serve.Audit

let check = Alcotest.check

let tframe = Alcotest.testable Frame.pp ( = )

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* -- fixtures (as test_serve) ------------------------------------------- *)

let with_temp_log f =
  let path = Filename.temp_file "sfr_serve_obs" ".sflog" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = Bytes.create n in
  really_input ic b 0 n;
  close_in ic;
  Bytes.to_string b

let record program =
  with_temp_log (fun path ->
      let rec_, cb, root = Recorder.create ~path () in
      program cb root;
      let stats = Recorder.close rec_ in
      ignore stats;
      read_file path |> Bytes.of_string)

let serial p cb root = ignore (Serial_exec.run cb ~root p)

let synth_image ~seed ~ops =
  let t = Synthetic.generate ~seed ~ops ~depth:4 ~locs:8 () in
  let i = Synthetic.instantiate t in
  record (fun cb root -> serial (fun () -> i.Synthetic.program ()) cb root)

let workload_image name =
  match
    List.find_opt (fun (w : Workload.t) -> w.Workload.name = name) Registry.all
  with
  | None -> Alcotest.failf "no %s workload registered" name
  | Some w ->
      let i = w.Workload.instantiate ~inject_race:false Workload.Tiny in
      record (fun cb root -> serial (fun () -> i.Workload.program ()) cb root)

let mk_cfg ?(session = Session.default_config) ?(budget = 4 * 1024 * 1024)
    ?(pool = 0) ?(defer = false) () =
  {
    Server.session;
    global_budget = budget;
    overload = Server.Shed;
    pool_domains = pool;
    defer_ingest = defer;
  }

let with_server ?now_ms cfg f =
  let server = Server.create ?now_ms cfg in
  Fun.protect ~finally:(fun () -> Server.shutdown server) (fun () -> f server)

let sid_of c =
  match
    List.find_map
      (function Frame.Welcome { session; _ } -> Some session | _ -> None)
      (Loopback.replies c)
  with
  | Some s -> s
  | None -> Alcotest.fail "client never saw WELCOME"

let await_outcomes ?(spin = 200_000_000) server n =
  let i = ref 0 in
  while List.length (Server.outcomes server) < n && !i < spin do
    incr i;
    Domain.cpu_relax ()
  done;
  List.length (Server.outcomes server)

let parse_exn what s =
  match Json_min.parse s with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s: unparseable JSON: %s" what e

let num_exn what j k =
  match Json_min.member k j with
  | Some (Json_min.Num v) -> v
  | _ -> Alcotest.failf "%s: missing numeric %S" what k

(* -- admin frame codec --------------------------------------------------- *)

let admin_frames =
  [
    Frame.Stats_req;
    Frame.Health_req;
    Frame.Metrics_req;
    Frame.Stats_reply "{\"server\":{},\"sessions\":[]}";
    Frame.Stats_reply "";
    Frame.Health_reply { healthy = true; detail = "queued=0B" };
    Frame.Health_reply { healthy = false; detail = "" };
    Frame.Metrics_reply "# TYPE sfr_serve_sessions_active gauge\n";
  ]

let test_admin_codec () =
  (* byte-at-a-time decode: resume correctness for the new tags too *)
  let image = Buffer.create 256 in
  List.iter (Frame.encode image) admin_frames;
  let image = Buffer.to_bytes image in
  let d = Frame.decoder () in
  let out = ref [] in
  for pos = 0 to Bytes.length image - 1 do
    Frame.decoder_feed d image ~pos ~len:1;
    let continue_ = ref true in
    while !continue_ do
      match Frame.decoder_next d with
      | Ok (Some f) -> out := f :: !out
      | Ok None -> continue_ := false
      | Error e -> Alcotest.failf "decode: %s" (Frame.error_to_string e)
    done
  done;
  check (Alcotest.list tframe) "admin frames round-trip" admin_frames
    (List.rev !out)

(* -- the admin plane over loopback --------------------------------------- *)

let find_reply what f replies =
  match List.find_map f replies with
  | Some r -> r
  | None -> Alcotest.failf "no %s reply" what

let test_admin_session () =
  with_server (mk_cfg ()) (fun server ->
      let c = Loopback.connect server in
      Loopback.send_frame ~chaos:false c Frame.Health_req;
      Loopback.send_frame ~chaos:false c Frame.Stats_req;
      Loopback.send_frame ~chaos:false c Frame.Metrics_req;
      let rs = Loopback.replies c in
      let healthy, detail =
        find_reply "HEALTH"
          (function
            | Frame.Health_reply { healthy; detail } -> Some (healthy, detail)
            | _ -> None)
          rs
      in
      check Alcotest.bool "fresh server is healthy" true healthy;
      check Alcotest.bool "detail names the budget" true
        (contains detail "budget=");
      let stats =
        find_reply "STATS"
          (function Frame.Stats_reply s -> Some s | _ -> None)
          rs
      in
      let j = parse_exn "stats" stats in
      (match Json_min.member "server" j with
      | Some (Json_min.Obj _) -> ()
      | _ -> Alcotest.fail "stats: no server object");
      (match Json_min.member "sessions" j with
      | Some (Json_min.Arr sessions) ->
          (* the probe's own connection is in the table, as an admin
             session that never opened a stream *)
          check Alcotest.bool "probe session listed as admin" true
            (List.exists
               (fun s ->
                 match Json_min.member "phase" s with
                 | Some (Json_min.Str p) -> p = "admin"
                 | _ -> false)
               sessions)
      | _ -> Alcotest.fail "stats: no sessions array");
      let scrape =
        find_reply "METRICS"
          (function Frame.Metrics_reply m -> Some m | _ -> None)
          rs
      in
      (match Telemetry.check_prometheus scrape with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "scrape violates the grammar: %s" e);
      List.iter
        (fun family ->
          check Alcotest.bool (family ^ " exported") true
            (contains scrape family))
        [
          "sfr_serve_sessions_opened";
          "sfr_serve_admin_requests";
          "sfr_serve_sessions_active";
          "sfr_serve_budget_bytes";
          "sfr_serve_budget_headroom_bytes";
          "sfr_serve_latency_frame_ack_ns";
          "sfr_serve_latency_hello_verdict_ms";
        ];
      (* the probe leaves no outcome and frees its slot *)
      Loopback.disconnect c;
      check Alcotest.int "no outcome latched" 0
        (List.length (Server.outcomes server));
      check Alcotest.int "no session left" 0 (Server.active_sessions server);
      (* ...and the data plane still serves *)
      let image = synth_image ~seed:7 ~ops:200 in
      let c2 = Loopback.connect server in
      Loopback.run_log ~chaos:false c2 image;
      check Alcotest.int "stream after probe settles" 1
        (List.length (Server.outcomes server)))

let test_admin_mid_stream () =
  let image = workload_image "mm" in
  with_server (mk_cfg ()) (fun server ->
      let c = Loopback.connect server in
      Loopback.hello ~chaos:false c;
      ignore (Loopback.pump ~chaos:false c image ~pos:0 ~len:1024);
      Loopback.send_frame ~chaos:false c Frame.Stats_req;
      let stats =
        find_reply "STATS"
          (function Frame.Stats_reply s -> Some s | _ -> None)
          (Loopback.replies c)
      in
      let j = parse_exn "stats" stats in
      (match Json_min.member "sessions" j with
      | Some (Json_min.Arr sessions) ->
          check Alcotest.bool "streaming phase visible" true
            (List.exists
               (fun s ->
                 match Json_min.member "phase" s with
                 | Some (Json_min.Str p) -> p = "streaming"
                 | _ -> false)
               sessions)
      | _ -> Alcotest.fail "stats: no sessions array");
      (* the stream is unharmed by the probe *)
      let sent = ref 1024 in
      while !sent < Bytes.length image do
        sent :=
          !sent
          + Loopback.pump ~chaos:false c image ~pos:!sent
              ~len:(Bytes.length image - !sent)
      done;
      Loopback.close ~chaos:false c;
      let o =
        match
          List.find_opt
            (fun (o : Session.outcome) -> o.Session.session = sid_of c)
            (Server.outcomes server)
        with
        | Some o -> o
        | None -> Alcotest.fail "no outcome"
      in
      check Alcotest.bool "clean verdict despite mid-stream probe" true
        (o.Session.code = Frame.Ok_clean || o.Session.code = Frame.Ok_races);
      (* a client must not speak the server's side of the admin plane *)
      let c2 = Loopback.connect server in
      Loopback.send_frame ~chaos:false c2
        (Frame.Health_reply { healthy = true; detail = "liar" });
      match Loopback.last_terminal c2 with
      | Some (Frame.Reject { code = Frame.Err_protocol; _ }) -> ()
      | r ->
          Alcotest.failf "expected ERR_PROTOCOL reject, got %s"
            (match r with
            | Some f -> Format.asprintf "%a" Frame.pp f
            | None -> "nothing"))

(* -- audit: record round-trip and sink mechanics ------------------------- *)

let sample_records =
  [
    Audit.Session_open { session = 0 };
    Audit.Hello { session = 0; version = 1 };
    Audit.Credit { session = 0; grant = 65536 };
    Audit.Shed { session = 3; evicted = 4096 };
    Audit.Deadline { session = 5; age_ms = 1500 };
    Audit.Idle { session = 6; quiet_ms = 900 };
    Audit.Disconnect { session = 7; bytes_analyzed = 130 };
    Audit.Verdict
      {
        session = 8;
        code = "OK_RACES";
        races = 2;
        events = 345;
        bytes_analyzed = 999;
      };
  ]

let test_audit_roundtrip () =
  List.iteri
    (fun i r ->
      let line = Audit.to_json ~seq:i ~t_ms:(float_of_int i *. 0.5) r in
      let j = parse_exn "record" line in
      check Alcotest.int (Printf.sprintf "record %d seq" i) i
        (int_of_float (num_exn "record" j "seq"));
      match Json_min.member "event" j with
      | Some (Json_min.Str ev) ->
          check Alcotest.string "event name" (Audit.event_name r) ev
      | _ -> Alcotest.fail "record without event")
    sample_records;
  (* a full synthetic stream through the sink lints clean *)
  let path = Filename.temp_file "sfr_audit" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Audit.close_sink ();
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Audit.open_sink ~tail_capacity:4 ~path ();
      check Alcotest.bool "armed" true (Audit.armed ());
      List.iter Audit.emit sample_records;
      check Alcotest.int "record_count" (List.length sample_records)
        (Audit.record_count ());
      (* the ring keeps only the most recent [tail_capacity] *)
      let tl = Audit.tail () in
      check Alcotest.int "tail bounded" 4 (List.length tl);
      (match List.rev tl with
      | (_, Audit.Verdict { session = 8; _ }) :: _ -> ()
      | _ -> Alcotest.fail "tail does not end with the newest record");
      check Alcotest.bool "tail text mentions the verdict" true
        (contains (Audit.tail_to_text ()) "verdict");
      Audit.close_sink ();
      check Alcotest.bool "disarmed" false (Audit.armed ());
      Audit.emit (Audit.Session_open { session = 99 });
      match Audit.lint_jsonl (read_file path) with
      | Ok n ->
          check Alcotest.int "lint counts every emitted record"
            (List.length sample_records) n
      | Error e -> Alcotest.failf "lint rejected the sink's own output: %s" e)

let test_audit_lint_rejections () =
  let header = "{\"audit_schema\":1,\"unix_time\":0.0}" in
  let cases =
    [
      ("empty", "", "empty");
      ("no header", "not json\n", "header");
      ( "wrong schema",
        "{\"audit_schema\":99}\n",
        "audit_schema" );
      ( "unknown event",
        header ^ "\n{\"seq\":0,\"t_ms\":0.1,\"event\":\"reboot\"}\n",
        "unknown event" );
      (* the retired park/thaw/block overload edges are no longer part
         of the schema *)
      ( "retired park event",
        header
        ^ "\n{\"seq\":0,\"t_ms\":0.1,\"event\":\"park\",\"queued\":2048,\"budget\":1024}\n",
        "unknown event \"park\"" );
      ( "seq regression",
        header
        ^ "\n{\"seq\":0,\"t_ms\":0.1,\"event\":\"session_open\",\"session\":1}\n\
           {\"seq\":0,\"t_ms\":0.2,\"event\":\"session_open\",\"session\":2}\n",
        "not increasing" );
      ( "missing required field",
        header ^ "\n{\"seq\":0,\"t_ms\":0.1,\"event\":\"shed\",\"session\":2}\n",
        "missing" );
      ( "missing t_ms",
        header ^ "\n{\"seq\":0,\"event\":\"session_open\",\"session\":2}\n",
        "t_ms" );
    ]
  in
  List.iter
    (fun (name, text, needle) ->
      match Audit.lint_jsonl text with
      | Ok n -> Alcotest.failf "%s: lint accepted it (%d records)" name n
      | Error e ->
          check Alcotest.bool
            (Printf.sprintf "%s diagnostic mentions %S" name needle)
            true (contains e needle))
    cases

(* -- audit over a concurrent soak ---------------------------------------- *)

let count_events lines ev =
  List.length
    (List.filter
       (fun j ->
         match Json_min.member "event" j with
         | Some (Json_min.Str e) -> e = ev
         | _ -> false)
       lines)

let test_audit_soak () =
  let image = workload_image "mm" in
  check Alcotest.bool "fixture big enough to shed" true
    (Bytes.length image > 2048);
  let path = Filename.temp_file "sfr_audit_soak" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Audit.close_sink ();
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Audit.open_sink ~path ();
      (* phase 1: a 4-domain pool, four healthy streams and one torn *)
      with_server (mk_cfg ~pool:4 ()) (fun server ->
          let healthy = List.init 4 (fun _ -> Loopback.connect server) in
          let torn_c = Loopback.connect server in
          let doms =
            List.map
              (fun c ->
                Domain.spawn (fun () ->
                    Loopback.run_log ~chaos:false ~frame:1024 c image))
              healthy
          in
          Loopback.hello ~chaos:false torn_c;
          ignore
            (Loopback.pump ~chaos:false torn_c image ~pos:0
               ~len:(Bytes.length image / 2));
          Loopback.disconnect torn_c;
          List.iter Domain.join doms;
          Server.quiesce server;
          check Alcotest.int "five outcomes" 5 (await_outcomes server 5));
      (* phase 2: an inline server with a tiny budget sheds one intake *)
      with_server
        (mk_cfg ~budget:1024 ())
        (fun server ->
          let c = Loopback.connect server in
          Loopback.hello ~chaos:false c;
          ignore
            (Loopback.pump ~chaos:false ~frame:2048 c image ~pos:0 ~len:2048);
          match Loopback.last_terminal c with
          | Some (Frame.Verdict { code = Frame.Err_overload; _ }) -> ()
          | r ->
              Alcotest.failf "expected ERR_OVERLOAD, got %s"
                (match r with
                | Some f -> Format.asprintf "%a" Frame.pp f
                | None -> "nothing"));
      let records = Audit.record_count () in
      Audit.close_sink ();
      let text = read_file path in
      (match Audit.lint_jsonl text with
      | Ok n -> check Alcotest.int "lint count = emit count" records n
      | Error e -> Alcotest.failf "soak audit log fails lint: %s" e);
      let lines =
        match
          List.filter (fun l -> String.trim l <> "")
            (String.split_on_char '\n' text)
        with
        | _ :: rest -> List.map (parse_exn "line") rest
        | [] -> Alcotest.fail "empty audit file"
      in
      check Alcotest.int "six sessions opened" 6
        (count_events lines "session_open");
      check Alcotest.int "six hellos" 6 (count_events lines "hello");
      (* 4 healthy + 1 torn + 1 shed, each with exactly one verdict *)
      check Alcotest.int "six verdicts" 6 (count_events lines "verdict");
      check Alcotest.int "one shed" 1 (count_events lines "shed");
      check Alcotest.int "one disconnect" 1
        (count_events lines "disconnect");
      check Alcotest.bool "credit was granted" true
        (count_events lines "credit" > 0);
      (* the shed record prices what was evicted *)
      List.iter
        (fun j ->
          match Json_min.member "event" j with
          | Some (Json_min.Str "shed") ->
              check Alcotest.bool "shed evicted > 0" true
                (num_exn "shed" j "evicted" > 0.0)
          | _ -> ())
        lines)

(* -- trace spans --------------------------------------------------------- *)

let test_span_nesting () =
  let image = synth_image ~seed:11 ~ops:400 in
  Fun.protect
    ~finally:(fun () ->
      Trace_event.stop ();
      Trace_event.clear ())
    (fun () ->
      Trace_event.start ();
      with_server (mk_cfg ()) (fun server ->
          let c1 = Loopback.connect server in
          let c2 = Loopback.connect server in
          Loopback.run_log ~chaos:false ~frame:512 c1 image;
          Loopback.run_log ~chaos:false ~frame:512 c2 image;
          check Alcotest.int "both sessions settled" 2
            (List.length (Server.outcomes server)));
      Trace_event.stop ();
      let evs = Trace_event.events () in
      let completes =
        List.filter
          (fun (e : Trace_event.event) -> e.Trace_event.ph = Trace_event.Complete)
          evs
      in
      let serve_spans =
        List.filter
          (fun (e : Trace_event.event) ->
            String.length e.Trace_event.name >= 6
            && String.sub e.Trace_event.name 0 6 = "serve.")
          completes
      in
      check Alcotest.bool "serve spans were recorded" true (serve_spans <> []);
      (* every serve span carries its session correlation arg *)
      List.iter
        (fun (e : Trace_event.event) ->
          check Alcotest.bool
            (Printf.sprintf "%s has a session arg" e.Trace_event.name)
            true
            (List.mem_assoc "session" e.Trace_event.args))
        serve_spans;
      (* per-track well-formedness: on any one tid, two spans either
         nest or are disjoint — never partially overlap *)
      let overlap (a : Trace_event.event) (b : Trace_event.event) =
        let a0 = a.Trace_event.ts and a1 = a.Trace_event.ts +. a.Trace_event.dur in
        let b0 = b.Trace_event.ts and b1 = b.Trace_event.ts +. b.Trace_event.dur in
        a.Trace_event.tid = b.Trace_event.tid
        && a0 < b0 && b0 < a1 && a1 < b1
      in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              if overlap a b then
                Alcotest.failf "spans %s and %s partially overlap"
                  a.Trace_event.name b.Trace_event.name)
            completes)
        completes;
      (* each session's lifecycle span lives on its own track and
         brackets that session's ingest work *)
      let lifecycles =
        List.filter
          (fun (e : Trace_event.event) -> e.Trace_event.name = "serve.session")
          completes
      in
      check Alcotest.int "one lifecycle span per session" 2
        (List.length lifecycles);
      List.iter
        (fun (l : Trace_event.event) ->
          let sid = List.assoc "session" l.Trace_event.args in
          check Alcotest.int "lifecycle on the session's own track"
            (1000 + int_of_float sid) l.Trace_event.tid;
          let ingests =
            List.filter
              (fun (e : Trace_event.event) ->
                e.Trace_event.name = "serve.session.ingest"
                && List.assoc_opt "session" e.Trace_event.args = Some sid)
              completes
          in
          check Alcotest.bool "session has ingest spans" true (ingests <> []);
          List.iter
            (fun (i : Trace_event.event) ->
              check Alcotest.bool "ingest inside the lifecycle" true
                (l.Trace_event.ts <= i.Trace_event.ts
                && i.Trace_event.ts +. i.Trace_event.dur
                   <= l.Trace_event.ts +. l.Trace_event.dur))
            ingests)
        lifecycles)

(* -- prometheus under load ----------------------------------------------- *)

let test_prometheus_under_load () =
  let image = workload_image "mm" in
  with_server (mk_cfg ()) (fun server ->
      let c = Loopback.connect server in
      Loopback.run_log ~chaos:false c image;
      (* scraped from a live server: grammar-clean, with the serve
         gauge and latency families present *)
      let scrape = Server.prometheus server in
      (match Telemetry.check_prometheus scrape with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "live scrape violates the grammar: %s" e);
      List.iter
        (fun family ->
          check Alcotest.bool (family ^ " exported") true
            (contains scrape family))
        [
          "sfr_serve_sessions_opened";
          "sfr_serve_sessions_active";
          "sfr_serve_budget_bytes";
          "sfr_serve_queued_bytes_now";
          "sfr_serve_latency_frame_ack_ns_count";
          "sfr_serve_latency_hello_verdict_ms_count";
        ];
      let healthy, _ = Server.health server in
      check Alcotest.bool "served-out server is healthy" true healthy;
      let j = parse_exn "stats" (Server.stats_json server) in
      check Alcotest.bool "finished count in stats" true
        (num_exn "stats"
           (match Json_min.member "server" j with
           | Some s -> s
           | None -> Alcotest.fail "no server object")
           "finished_sessions"
        >= 1.0))

let () =
  Alcotest.run "serve_obs"
    [
      ( "admin",
        [
          Alcotest.test_case "codec round-trip" `Quick test_admin_codec;
          Alcotest.test_case "admin-only session" `Quick test_admin_session;
          Alcotest.test_case "mid-stream probe" `Quick test_admin_mid_stream;
        ] );
      ( "audit",
        [
          Alcotest.test_case "record round-trip + sink" `Quick
            test_audit_roundtrip;
          Alcotest.test_case "lint rejections" `Quick
            test_audit_lint_rejections;
          Alcotest.test_case "concurrent soak" `Quick test_audit_soak;
        ] );
      ( "trace",
        [ Alcotest.test_case "span nesting" `Quick test_span_nesting ] );
      ( "prometheus",
        [
          Alcotest.test_case "live scrape under load" `Quick
            test_prometheus_under_load;
        ] );
    ]
