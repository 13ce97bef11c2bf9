(* racedetect-serve tests.

   The contract under test: (1) the frame codec round-trips and every
   malformed wire image is a typed [error], sticky, never an exception;
   (2) a streamed session's verdict is byte-identical to a live SF-Order
   run of the recorded program — reports, event counts, analyzed bytes;
   (3) every
   prefix of a stream, cut anywhere and abandoned, yields a clean
   partial verdict or a typed error and leaves the server serving;
   (4) sessions are isolated — a poisoned stream finishes with its own
   typed outcome while neighbours keep streaming; (5) the credit window
   bounds per-session queue memory and overruns are typed protocol
   errors; (6) the three overload policies (shed / park / block) fire
   deterministically against the global byte budget, with their
   counters; (7) deadlines and idle timeouts fire off the injected
   clock; (8) chaos wire faults produce typed outcomes, deterministic
   per seed; (9) the acceptance soak: a 4-domain pool, nine concurrent
   sessions (one torn, one credit-overrunning, one idle) all settle
   with correct verdicts and the queue accounting returns to zero. *)

module Log_format = Sfr_eventlog.Log_format
module Recorder = Sfr_eventlog.Recorder
module Serial_exec = Sfr_runtime.Serial_exec
module Workload = Sfr_workloads.Workload
module Registry = Sfr_workloads.Registry
module Synthetic = Sfr_workloads.Synthetic
module Detector = Sfr_detect.Detector
module Sf_order = Sfr_detect.Sf_order
module Race = Sfr_detect.Race
module Chaos = Sfr_chaos.Chaos
module Metrics = Sfr_obs.Metrics
module Frame = Sfr_serve.Frame
module Session = Sfr_serve.Session
module Server = Sfr_serve.Server
module Loopback = Sfr_serve.Loopback

let check = Alcotest.check
let slist = Alcotest.list Alcotest.string

let tcode =
  Alcotest.testable
    (fun fmt c -> Format.pp_print_string fmt (Frame.reply_code_name c))
    ( = )

let tframe = Alcotest.testable Frame.pp ( = )

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* -- fixtures ----------------------------------------------------------- *)

let with_temp_log f =
  let path = Filename.temp_file "sfr_serve" ".sflog" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = Bytes.create n in
  really_input ic b 0 n;
  close_in ic;
  b

let record program =
  with_temp_log (fun path ->
      let rec_, cb, root = Recorder.create ~path () in
      program cb root;
      let stats = Recorder.close rec_ in
      (stats, read_file path))

let serial p cb root = ignore (Serial_exec.run cb ~root p)

let norm base reports =
  List.map
    (fun (r : Race.report) ->
      Printf.sprintf "loc+%d %s f%d f%d x%d" (r.Race.loc - base)
        (Format.asprintf "%a" Race.pp_kind r.Race.kind)
        r.Race.prev_future r.Race.cur_future r.Race.count)
    reports

(* The reference verdict: SF-Order run live on [program]. *)
let live_races base program =
  let det = Sf_order.make () in
  serial program det.Detector.callbacks det.Detector.root;
  norm base (Race.reports det.Detector.races)

(* A serially recorded synthetic log, its base, and the live verdict on
   a fresh instance of the same program: the streamed verdict must be
   byte-identical to it. *)
let synth_image ~seed ~ops =
  let t = Synthetic.generate ~seed ~ops ~depth:4 ~locs:8 () in
  let live =
    let i = Synthetic.instantiate t in
    live_races i.Synthetic.mem_base i.Synthetic.program
  in
  let i = Synthetic.instantiate t in
  let stats, image =
    record (fun cb root -> serial (fun () -> i.Synthetic.program ()) cb root)
  in
  (image, i.Synthetic.mem_base, live, stats)

(* A registry workload's serial recording — the mm log is a few KiB,
   big enough to overflow the small credit windows and byte budgets the
   overload tests configure. *)
let workload_image ?(scale = Workload.Tiny) name ~inject_race =
  match
    List.find_opt (fun (w : Workload.t) -> w.Workload.name = name) Registry.all
  with
  | None -> Alcotest.failf "no %s workload registered" name
  | Some w ->
      let live =
        let i = w.Workload.instantiate ~inject_race scale in
        live_races i.Workload.mem_base i.Workload.program
      in
      let i = w.Workload.instantiate ~inject_race scale in
      let stats, image =
        record (fun cb root -> serial (fun () -> i.Workload.program ()) cb root)
      in
      (image, i.Workload.mem_base, live, stats)

let mk_cfg ?(session = Session.default_config) ?(budget = 4 * 1024 * 1024)
    ?(overload = Server.Shed) ?(pool = 0) ?(defer = false) () =
  {
    Server.session;
    global_budget = budget;
    overload;
    pool_domains = pool;
    defer_ingest = defer;
  }

(* Session settings are checked when the server is created, not on the
   first connection after its HELLO has been audited. *)
let test_create_validates_session () =
  let rejects session =
    match Server.create (mk_cfg ~session ()) with
    | server ->
        Server.shutdown server;
        false
    | exception Invalid_argument _ -> true
  in
  let d = Session.default_config in
  check Alcotest.bool "credit_window = 0 rejected" true
    (rejects { d with credit_window = 0 });
  check Alcotest.bool "defaults accepted" false (rejects d)

(* The detection pool is capped like the executor's workers; checked
   through [validate] alone, so no pool domain is ever spawned here. *)
let test_validate_bounds_pool () =
  let rejects pool = Result.is_error (Server.validate (mk_cfg ~pool ())) in
  let max = Sfr_runtime.Par_exec.max_workers in
  check Alcotest.bool "negative pool rejected" true (rejects (-1));
  check Alcotest.bool "max_workers + 1 rejected" true (rejects (max + 1));
  check Alcotest.bool "max_workers accepted" false (rejects max);
  check Alcotest.bool "error names the field"
    true
    (Server.validate (mk_cfg ~pool:(max + 1) ())
    = Error (Printf.sprintf "pool_domains must be in 0..%d" max))

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

let outcome_exn server sid =
  match
    List.find_opt
      (fun (o : Session.outcome) -> o.Session.session = sid)
      (Server.outcomes server)
  with
  | Some o -> o
  | None -> Alcotest.failf "no outcome for session %d" sid

let await_outcomes ?(spin = 200_000_000) server n =
  let i = ref 0 in
  while List.length (Server.outcomes server) < n && !i < spin do
    incr i;
    Domain.cpu_relax ()
  done;
  List.length (Server.outcomes server)

(* -- frame codec -------------------------------------------------------- *)

let sample_frames =
  [
    Frame.Hello { version = Frame.protocol_version };
    Frame.Data Bytes.empty;
    Frame.Data (Bytes.of_string "a .sflog slice \x00\x01\xfe\xff cut anywhere");
    Frame.Close;
    Frame.Welcome { session = 42; credit = 256 * 1024 };
    Frame.Credit 1;
    Frame.Credit 123456789;
    Frame.Verdict
      {
        code = Frame.Ok_races;
        races = 3;
        events = 12345;
        bytes_analyzed = 999_999;
        message = "";
      };
    Frame.Verdict
      {
        code = Frame.Err_torn;
        races = 0;
        events = 7;
        bytes_analyzed = 130;
        message = "unexpected end of log; analyzed prefix up to byte 130";
      };
    Frame.Reject { code = Frame.Err_overload; message = "retry later" };
  ]

(* Feed [bytes] in [chunk]-sized slices and collect every decoded frame. *)
let decode_all ?max_frame bytes ~chunk =
  let d = Frame.decoder ?max_frame () in
  let out = ref [] in
  let err = ref None in
  let n = Bytes.length bytes in
  let pos = ref 0 in
  while !pos < n && !err = None do
    let len = min chunk (n - !pos) in
    Frame.decoder_feed d bytes ~pos:!pos ~len;
    pos := !pos + len;
    let continue_ = ref true in
    while !continue_ do
      match Frame.decoder_next d with
      | Ok (Some f) -> out := f :: !out
      | Ok None -> continue_ := false
      | Error e ->
          err := Some e;
          continue_ := false
    done
  done;
  match !err with Some e -> Error e | None -> Ok (List.rev !out)

let test_frame_round_trip () =
  let buf = Buffer.create 256 in
  List.iter (Frame.encode buf) sample_frames;
  let image = Buffer.to_bytes buf in
  (match decode_all image ~chunk:(Bytes.length image) with
  | Ok fs -> check (Alcotest.list tframe) "one-shot decode" sample_frames fs
  | Error e -> Alcotest.failf "decode failed: %s" (Frame.error_to_string e));
  match decode_all image ~chunk:1 with
  | Ok fs -> check (Alcotest.list tframe) "byte-at-a-time decode" sample_frames fs
  | Error e -> Alcotest.failf "incremental decode failed: %s" (Frame.error_to_string e)

(* Hand-rolled wire image with a valid CRC, for payloads [encode] would
   never produce. *)
let manual_frame tag payload =
  let buf = Buffer.create 32 in
  Buffer.add_char buf (Char.chr tag);
  Log_format.write_varint buf (Bytes.length payload);
  Buffer.add_bytes buf payload;
  let crc =
    Log_format.crc32_update Log_format.crc32_init payload ~pos:0
      ~len:(Bytes.length payload)
  in
  Buffer.add_char buf (Char.chr (crc land 0xFF));
  Buffer.add_char buf (Char.chr ((crc lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr ((crc lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((crc lsr 24) land 0xFF));
  Buffer.to_bytes buf

let decode_one ?max_frame bytes =
  decode_all ?max_frame bytes ~chunk:(Bytes.length bytes)

let test_frame_errors () =
  (* CRC corruption is typed and sticky *)
  let image = Frame.to_bytes (Frame.Welcome { session = 7; credit = 100 }) in
  let n = Bytes.length image in
  Bytes.set image (n - 1) (Char.chr (Char.code (Bytes.get image (n - 1)) lxor 0x40));
  let d = Frame.decoder () in
  Frame.decoder_feed d image ~pos:0 ~len:n;
  (match Frame.decoder_next d with
  | Error (Frame.Bad_crc _) -> ()
  | other ->
      Alcotest.failf "expected Bad_crc, got %s"
        (match other with
        | Ok _ -> "Ok"
        | Error e -> Frame.error_to_string e));
  let good = Frame.to_bytes Frame.Close in
  Frame.decoder_feed d good ~pos:0 ~len:(Bytes.length good);
  (match Frame.decoder_next d with
  | Error (Frame.Bad_crc _) -> ()
  | _ -> Alcotest.fail "decoder error must be sticky");
  (* unknown tag *)
  (match decode_one (manual_frame 0x7F Bytes.empty) with
  | Error (Frame.Bad_tag 0x7F) -> ()
  | _ -> Alcotest.fail "expected Bad_tag");
  (* hostile length versus the frame budget *)
  (match
     decode_one ~max_frame:16 (Frame.to_bytes (Frame.Data (Bytes.create 64)))
   with
  | Error (Frame.Too_large { len = 64; limit = 16 }) -> ()
  | _ -> Alcotest.fail "expected Too_large");
  (* truncated payloads with a valid CRC *)
  (match decode_one (manual_frame 0x01 Bytes.empty) with
  | Error (Frame.Malformed { tag = 0x01; _ }) -> ()
  | _ -> Alcotest.fail "expected Malformed HELLO");
  (* unknown reply code in a VERDICT *)
  let bad_verdict =
    let p = Buffer.create 8 in
    Log_format.write_varint p 99;
    List.iter (Log_format.write_varint p) [ 0; 0; 0; 0 ];
    manual_frame 0x12 (Buffer.to_bytes p)
  in
  (match decode_one bad_verdict with
  | Error (Frame.Malformed { tag = 0x12; what }) ->
      check Alcotest.bool "names the reply code" true (contains what "reply code")
  | _ -> Alcotest.fail "expected Malformed VERDICT");
  (* trailing bytes after a well-formed payload *)
  let trailing =
    let p = Buffer.create 8 in
    Log_format.write_varint p Frame.protocol_version;
    Buffer.add_char p 'x';
    manual_frame 0x01 (Buffer.to_bytes p)
  in
  match decode_one trailing with
  | Error (Frame.Malformed { tag = 0x01; _ }) -> ()
  | _ -> Alcotest.fail "expected Malformed trailing payload"

(* -- streamed verdict == offline replay --------------------------------- *)

let expect_code offline = if offline = [] then Frame.Ok_clean else Frame.Ok_races

let test_stream_matches_offline () =
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun inject_race ->
          let image, base, offline, stats =
            workload_image w.Workload.name ~inject_race
          in
          with_server (mk_cfg ()) (fun server ->
              let c = Loopback.connect server in
              Loopback.run_log ~chaos:false c image;
              let o = outcome_exn server (sid_of c) in
              let label what =
                Printf.sprintf "%s inject:%b %s" w.Workload.name inject_race what
              in
              check tcode (label "code") (expect_code offline) o.Session.code;
              check slist (label "reports") offline
                (norm base o.Session.reports);
              check Alcotest.int (label "events") stats.Recorder.events
                o.Session.events;
              check Alcotest.int (label "bytes") (Bytes.length image)
                o.Session.bytes_analyzed;
              (* the terminal frame the client saw is the same verdict *)
              match Loopback.last_terminal c with
              | Some (Frame.Verdict { code; _ }) ->
                  check tcode (label "client code") o.Session.code code
              | _ -> Alcotest.fail (label "client missed its verdict")))
        [ false; true ])
    Registry.all

(* -- every-prefix sweep ------------------------------------------------- *)

(* A stream cut at any byte and abandoned: clean partial verdict or a
   typed error, never a crash — and the same server keeps serving. *)
let test_every_prefix () =
  let image, base, offline, _ = synth_image ~seed:5 ~ops:40 in
  let n = Bytes.length image in
  with_server (mk_cfg ()) (fun server ->
      for p = 0 to n do
        let c = Loopback.connect server in
        Loopback.hello ~chaos:false c;
        if p > 0 then ignore (Loopback.pump ~chaos:false c image ~pos:0 ~len:p);
        Loopback.disconnect c;
        let o = outcome_exn server (sid_of c) in
        (match o.Session.code with
        | Frame.Ok_clean | Frame.Ok_races | Frame.Err_torn
        | Frame.Err_inconsistent | Frame.Err_detector ->
            ()
        | c ->
            Alcotest.failf "prefix %d: unexpected code %s" p
              (Frame.reply_code_name c));
        if o.Session.bytes_analyzed > p then
          Alcotest.failf "prefix %d: claims %d bytes analyzed" p
            o.Session.bytes_analyzed;
        if o.Session.code = Frame.Err_torn then
          check Alcotest.bool
            (Printf.sprintf "prefix %d names the analyzed prefix" p)
            true
            (contains o.Session.message "analyzed prefix up to byte");
        if p = n then begin
          (* the whole image without CLOSE is still a complete log *)
          check tcode "full prefix code" (expect_code offline) o.Session.code;
          check slist "full prefix reports" offline (norm base o.Session.reports)
        end
      done;
      check Alcotest.int "no sessions left" 0 (Server.active_sessions server);
      check Alcotest.int "queue drained" 0 (Server.queued_bytes server);
      check Alcotest.int "every prefix settled" (n + 1)
        (List.length (Server.outcomes server)))

(* -- session isolation -------------------------------------------------- *)

let test_isolation () =
  let image, base, offline, _ = synth_image ~seed:2 ~ops:120 in
  with_server (mk_cfg ()) (fun server ->
      let a = Loopback.connect server in
      let b = Loopback.connect server in
      Loopback.hello ~chaos:false a;
      Loopback.hello ~chaos:false b;
      let half = Bytes.length image / 2 in
      ignore (Loopback.pump ~chaos:false a image ~pos:0 ~len:half);
      (* b turns hostile mid-stream: a complete frame with a bad CRC *)
      let bad = Frame.to_bytes (Frame.Data (Bytes.make 32 'x')) in
      let last = Bytes.length bad - 1 in
      Bytes.set bad last (Char.chr (Char.code (Bytes.get bad last) lxor 0x40));
      Loopback.raw_send b bad;
      let ob = outcome_exn server (sid_of b) in
      check tcode "poisoned session typed" Frame.Err_protocol ob.Session.code;
      (* a never notices *)
      ignore
        (Loopback.pump ~chaos:false a image ~pos:half
           ~len:(Bytes.length image - half));
      Loopback.close ~chaos:false a;
      let oa = outcome_exn server (sid_of a) in
      check tcode "neighbour completes" (expect_code offline) oa.Session.code;
      check slist "neighbour verdict intact" offline
        (norm base oa.Session.reports))

(* A DATA payload naming state 2^24 — the 15-byte log whose only event
   is [Spawn {cur = 0; child = 2^24; cont = 1}] — must cost the server
   memory in proportion to its bytes, not to the ID: a torn verdict
   within a small constant heap. *)
let test_huge_state_id () =
  let image =
    let p = Buffer.create 16 in
    ignore
      (Log_format.write_event p ~last_loc:0
         (Log_format.Spawn { cur = 0; child = 1 lsl 24; cont = 1 }));
    let b = Buffer.create 32 in
    Buffer.add_string b Log_format.magic;
    Buffer.add_char b (Char.chr Log_format.version);
    Buffer.add_char b '\001';
    Log_format.write_varint b 0;
    Log_format.write_varint b (Buffer.length p);
    Buffer.add_buffer b p;
    Buffer.to_bytes b
  in
  check Alcotest.int "log size" 15 (Bytes.length image);
  with_server (mk_cfg ()) (fun server ->
      let s0 = Gc.quick_stat () in
      let c = Loopback.connect server in
      Loopback.hello ~chaos:false c;
      ignore (Loopback.pump ~chaos:false c image ~pos:0 ~len:(Bytes.length image));
      Loopback.close ~chaos:false c;
      let s1 = Gc.quick_stat () in
      let o = outcome_exn server (sid_of c) in
      check tcode "torn" Frame.Err_torn o.Session.code;
      let grown =
        max (s1.Gc.heap_words - s0.Gc.heap_words) (s1.Gc.top_heap_words - s0.Gc.top_heap_words)
      in
      check Alcotest.bool (Printf.sprintf "heap grew %d words" grown) true (grown < 1 lsl 18))

(* -- mutated client streams ----------------------------------------------- *)

(* A real session's client bytes: HELLO, the log in DATA frames of
   [frame] bytes, CLOSE. *)
let client_bytes ?(frame = 1024) image =
  let b = Buffer.create (Bytes.length image + 64) in
  Frame.encode b (Frame.Hello { version = Frame.protocol_version });
  let n = Bytes.length image in
  let rec data pos =
    if pos < n then begin
      let len = min frame (n - pos) in
      Frame.encode b (Frame.Data (Bytes.sub image pos len));
      data (pos + len)
    end
  in
  data 0;
  Frame.encode b Frame.Close;
  Buffer.to_bytes b

let client_corpus =
  lazy
    (let synth, _, _, _ = synth_image ~seed:5 ~ops:120 in
     let mm, _, _, _ = workload_image "mm" ~inject_race:false in
     [| client_bytes synth; client_bytes ~frame:300 mm |])

(* Positions are drawn independently of the input and reduced modulo
   its length when applied. *)
type wire_mutation =
  | Flip of { pos : int; bit : int }
  | Overlong of { pos : int }  (** 11 continuation bytes inserted *)
  | Length of { pos : int; len : int }
      (** a DATA header declaring [len] bytes (up to just past the
          decoder's 4 MiB [max_frame]) inserted *)
  | Truncate of { len : int }
  | Splice of { other : int; at : int; from : int }
      (** a prefix of the input, then a suffix of another corpus stream *)

let insert img at s =
  let at = at mod (Bytes.length img + 1) in
  Bytes.concat Bytes.empty
    [ Bytes.sub img 0 at; Bytes.of_string s; Bytes.sub img at (Bytes.length img - at) ]

let mutate_wire corpus img = function
  | Flip _ when Bytes.length img = 0 -> img
  | Flip { pos; bit } ->
      let b = Bytes.copy img and i = pos mod Bytes.length img in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      b
  | Overlong { pos } -> insert img pos (String.make 11 '\xFF')
  | Length { pos; len } ->
      let h = Buffer.create 8 in
      Buffer.add_char h '\x02';
      Log_format.write_varint h len;
      insert img pos (Buffer.contents h)
  | Truncate { len } -> Bytes.sub img 0 (len mod (Bytes.length img + 1))
  | Splice { other; at; from } ->
      let o = corpus.(other mod Array.length corpus) in
      let at = at mod (Bytes.length img + 1) and from = from mod (Bytes.length o + 1) in
      Bytes.cat (Bytes.sub img 0 at) (Bytes.sub o from (Bytes.length o - from))

let show_wire_mutation = function
  | Flip { pos; bit } -> Printf.sprintf "flip %d.%d" pos bit
  | Overlong { pos } -> Printf.sprintf "overlong @%d" pos
  | Length { pos; len } -> Printf.sprintf "length %d @%d" len pos
  | Truncate { len } -> Printf.sprintf "truncate %d" len
  | Splice { other; at; from } -> Printf.sprintf "splice %d @%d from %d" other at from

let gen_wire_mutation =
  let open QCheck2.Gen in
  let pos = int_bound 1_000_000 in
  oneof
    [
      map2 (fun pos bit -> Flip { pos; bit }) pos (int_bound 7);
      map (fun pos -> Overlong { pos }) pos;
      map2
        (fun pos len -> Length { pos; len })
        pos
        (oneof [ int_bound 64; int_range 0 ((4 * 1024 * 1024) + 16) ]);
      map (fun len -> Truncate { len }) pos;
      map3 (fun other at from -> Splice { other; at; from }) small_nat pos pos;
    ]

(* Fed to a session in slices of 1 B to 8 KiB, ingesting as it goes,
   every mutated stream ends in a typed reply or is still streaming
   (then a disconnect settles it), never in an exception; the heap
   grows at most in proportion to the bytes fed. *)
let prop_session_bounded =
  QCheck2.Test.make ~name:"mutated client bytes: typed reply, heap bounded by input"
    ~count:300
    ~print:(fun (base, ms, slices) ->
      Printf.sprintf "stream %d, [%s], slices [%s]" base
        (String.concat "; " (List.map show_wire_mutation ms))
        (String.concat " " (Array.to_list (Array.map string_of_int slices))))
    QCheck2.Gen.(
      triple small_nat
        (list_size (int_range 1 3) gen_wire_mutation)
        (array_size (int_range 1 16) (oneof [ int_range 1 16; int_range 1 8192 ])))
    (fun (base, ms, slices) ->
      let corpus = Lazy.force client_corpus in
      let img =
        List.fold_left (mutate_wire corpus) corpus.(base mod Array.length corpus) ms
      in
      let s0 = Gc.quick_stat () in
      let t = Session.create ~id:1 ~now_ms:0 Session.default_config in
      let len = Bytes.length img in
      let pos = ref 0 and k = ref 0 in
      while !pos < len && not (Session.finished t) do
        let n = min slices.(!k mod Array.length slices) (len - !pos) in
        ignore (Session.on_bytes t ~now_ms:0 img ~pos:!pos ~len:n);
        if Session.needs_ingest t then ignore (Session.ingest t);
        pos := !pos + n;
        incr k
      done;
      let typed = Session.outcome t <> None in
      if Session.finished t && not typed then
        QCheck2.Test.fail_report "finished without an outcome";
      if not (Session.finished t) then ignore (Session.on_disconnect t);
      let s1 = Gc.quick_stat () in
      let grown =
        max (s1.Gc.heap_words - s0.Gc.heap_words) (s1.Gc.top_heap_words - s0.Gc.top_heap_words)
      in
      (Session.outcome t <> None || Session.admin_only t
      || QCheck2.Test.fail_report "disconnect left no outcome")
      && (grown <= (64 * len) + (1 lsl 20)
         || QCheck2.Test.fail_reportf "%d-byte input grew the heap by %d words" len grown))

(* -- credit window ------------------------------------------------------ *)

let test_backpressure_bounds () =
  let image, base, offline, _ = workload_image "mm" ~inject_race:false in
  check Alcotest.bool "fixture bigger than the window" true
    (Bytes.length image > 512);
  Metrics.reset_all ();
  let session = { Session.default_config with credit_window = 512 } in
  with_server (mk_cfg ~session ()) (fun server ->
      let c = Loopback.connect server in
      Loopback.run_log ~chaos:false ~frame:128 c image;
      let o = outcome_exn server (sid_of c) in
      check tcode "small window still completes" (expect_code offline)
        o.Session.code;
      check slist "small window verdict" offline (norm base o.Session.reports);
      let hw = List.assoc "serve.queued.bytes" (Metrics.snapshot ()) in
      check Alcotest.bool "queue memory bounded by the window" true (hw <= 512));
  (* a hostile client ignoring CREDIT is finished, typed *)
  with_server (mk_cfg ~session ()) (fun server ->
      let c = Loopback.connect server in
      Loopback.hello ~chaos:false c;
      let big = min (Bytes.length image) 2048 in
      ignore
        (Loopback.pump ~chaos:false ~ignore_credit:true ~frame:big c image
           ~pos:0 ~len:big);
      let o = outcome_exn server (sid_of c) in
      check tcode "credit overrun typed" Frame.Err_protocol o.Session.code;
      check Alcotest.bool "message names the overrun" true
        (contains o.Session.message "credit exceeded");
      check Alcotest.bool "violation counted" true
        (List.assoc "serve.credit.violations" (Metrics.snapshot ()) >= 1))

(* -- overload policies -------------------------------------------------- *)

(* [defer_ingest] holds accepted bytes in the queue until [tick], so the
   global budget can be pushed over deterministically. *)

let drip_stream ?(chunk = 512) server c image =
  let len = Bytes.length image in
  let sent = ref 0 in
  while !sent < len do
    let k = min chunk (len - !sent) in
    ignore (Loopback.pump ~chaos:false ~frame:k c image ~pos:!sent ~len:k);
    Server.tick server;
    sent := !sent + k
  done;
  Loopback.close ~chaos:false c;
  Server.tick server

let overload_session = { Session.default_config with credit_window = 64 * 1024 }

let test_overload_shed () =
  let image, _, _, _ = synth_image ~seed:4 ~ops:300 in
  let n = min (Bytes.length image) 4096 in
  check Alcotest.bool "fixture bigger than the budget" true (n > 1024);
  Metrics.reset_all ();
  with_server
    (mk_cfg ~session:overload_session ~budget:1024 ~defer:true ())
    (fun server ->
      let c = Loopback.connect server in
      Loopback.hello ~chaos:false c;
      ignore (Loopback.pump ~chaos:false ~frame:n c image ~pos:0 ~len:n);
      let o = outcome_exn server (sid_of c) in
      check tcode "offender shed" Frame.Err_overload o.Session.code;
      check Alcotest.bool "shed is retryable" true (Frame.retryable o.Session.code);
      check Alcotest.int "queue released on shed" 0 (Server.queued_bytes server);
      let snap = Metrics.snapshot () in
      check Alcotest.int "shed counted" 1 (List.assoc "serve.shed.sessions" snap);
      check Alcotest.bool "shed bytes counted" true
        (List.assoc "serve.shed.bytes" snap >= n);
      (* the server keeps serving after the shed *)
      let c2 = Loopback.connect server in
      Loopback.hello ~chaos:false c2;
      drip_stream server c2 image;
      let o2 = outcome_exn server (sid_of c2) in
      check Alcotest.bool "post-shed session completes" true
        (o2.Session.code = Frame.Ok_clean || o2.Session.code = Frame.Ok_races))

let test_overload_park () =
  let image, base, offline, _ = workload_image "mm" ~inject_race:true in
  Metrics.reset_all ();
  with_server
    (mk_cfg ~session:overload_session ~budget:1024 ~overload:Server.Park
       ~defer:true ())
    (fun server ->
      let c = Loopback.connect server in
      Loopback.hello ~chaos:false c;
      let n = min (Bytes.length image) 4096 in
      ignore (Loopback.pump ~chaos:false ~frame:n c image ~pos:0 ~len:n);
      check Alcotest.bool "over budget parks" true (Server.parked server);
      check Alcotest.bool "nobody shed under park" true
        (Server.outcomes server = []);
      let credit_before = Loopback.credit c in
      Server.tick server;
      check Alcotest.bool "drain thaws the park" false (Server.parked server);
      check Alcotest.int "two park transitions" 2
        (List.assoc "serve.park.transitions" (Metrics.snapshot ()));
      check Alcotest.bool "catch-up credit after thaw" true
        (Loopback.credit c > credit_before);
      (* the parked client was never finished; it can stream to the end *)
      let rest = Bytes.length image - n in
      if rest > 0 then begin
        let sent = ref 0 in
        while !sent < rest do
          let k = min 512 (rest - !sent) in
          ignore
            (Loopback.pump ~chaos:false ~frame:k c image ~pos:(n + !sent) ~len:k);
          Server.tick server;
          sent := !sent + k
        done
      end;
      Loopback.close ~chaos:false c;
      Server.tick server;
      let o = outcome_exn server (sid_of c) in
      check tcode "parked session completes" (expect_code offline) o.Session.code;
      check slist "parked session verdict" offline (norm base o.Session.reports))

let test_overload_block () =
  let image, _, _, _ = synth_image ~seed:7 ~ops:300 in
  Metrics.reset_all ();
  with_server
    (mk_cfg ~session:overload_session ~budget:1024 ~overload:Server.Block
       ~defer:true ())
    (fun server ->
      let a = Loopback.connect server in
      Loopback.hello ~chaos:false a;
      let n = min (Bytes.length image) 4096 in
      ignore (Loopback.pump ~chaos:false ~frame:n a image ~pos:0 ~len:n);
      (* a newcomer's HELLO is refused while over budget *)
      let b = Loopback.connect server in
      Loopback.hello ~chaos:false b;
      (match Loopback.last_terminal b with
      | Some (Frame.Reject { code; _ }) ->
          check tcode "blocked at HELLO" Frame.Err_overload code;
          check Alcotest.bool "block is retryable" true (Frame.retryable code)
      | _ -> Alcotest.fail "expected REJECT at HELLO");
      check Alcotest.int "block counted" 1
        (List.assoc "serve.block.rejects" (Metrics.snapshot ()));
      (* the streaming session is untouched *)
      check Alcotest.int "streamer survives the block" 1
        (Server.active_sessions server);
      Server.tick server;
      (* back under budget: the next HELLO is welcomed *)
      let c2 = Loopback.connect server in
      Loopback.hello ~chaos:false c2;
      check Alcotest.bool "welcomed after drain" true
        (List.exists
           (function Frame.Welcome _ -> true | _ -> false)
           (Loopback.replies c2));
      Loopback.disconnect c2;
      Loopback.disconnect a;
      Server.tick server;
      check Alcotest.int "all three settled" 3
        (List.length (Server.outcomes server)))

(* -- deadlines and idle timeouts ---------------------------------------- *)

let test_deadline () =
  let image, _, _, _ = synth_image ~seed:8 ~ops:120 in
  let clock = ref 0 in
  let session = { Session.default_config with deadline_ms = Some 100 } in
  with_server
    ~now_ms:(fun () -> !clock)
    (mk_cfg ~session ())
    (fun server ->
      let c = Loopback.connect server in
      Loopback.hello ~chaos:false c;
      ignore
        (Loopback.pump ~chaos:false c image ~pos:0 ~len:(Bytes.length image / 2));
      clock := 50;
      Server.tick server;
      check Alcotest.int "young session alive" 1 (Server.active_sessions server);
      clock := 150;
      Server.tick server;
      let o = outcome_exn server (sid_of c) in
      check tcode "deadline fires" Frame.Err_deadline o.Session.code;
      check Alcotest.bool "deadline is retryable" true
        (Frame.retryable o.Session.code);
      check Alcotest.bool "verdict covers the analyzed prefix" true
        (o.Session.bytes_analyzed > 0);
      check Alcotest.bool "message names the deadline" true
        (contains o.Session.message "deadline"))

let test_idle () =
  let image, _, _, _ = synth_image ~seed:8 ~ops:120 in
  let clock = ref 0 in
  let session = { Session.default_config with idle_ms = Some 50 } in
  with_server
    ~now_ms:(fun () -> !clock)
    (mk_cfg ~session ())
    (fun server ->
      let c = Loopback.connect server in
      Loopback.hello ~chaos:false c;
      clock := 30;
      ignore (Loopback.pump ~chaos:false c image ~pos:0 ~len:64);
      clock := 60;
      Server.tick server;
      check Alcotest.int "activity resets the idle clock" 1
        (Server.active_sessions server);
      clock := 85;
      Server.tick server;
      let o = outcome_exn server (sid_of c) in
      check tcode "idle fires" Frame.Err_idle o.Session.code;
      check Alcotest.bool "idle is retryable" true (Frame.retryable o.Session.code);
      check Alcotest.bool "message names the quiet gap" true
        (contains o.Session.message "idle"))

(* -- chaos wire faults -------------------------------------------------- *)

let chaos_cfg = { Chaos.default_config with Chaos.wire_rate = 0.25 }

(* One armed round: three clients stream the same log through a faulty
   wire; whatever survives must settle with a typed outcome. Returns the
   per-session codes in session order. *)
let chaos_round ~seed image =
  Chaos.with_armed ~config:chaos_cfg ~seed (fun () ->
      with_server (mk_cfg ()) (fun server ->
          let clients = List.init 3 (fun _ -> Loopback.connect server) in
          List.iter (fun c -> Loopback.run_log c image) clients;
          (* a torn uplink eventually looks like a hangup *)
          List.iter
            (fun c ->
              if Loopback.last_terminal c = None then Loopback.disconnect c)
            clients;
          check Alcotest.int "every session settled" 3
            (List.length (Server.outcomes server));
          check Alcotest.int "queue drained" 0 (Server.queued_bytes server);
          let by_sid =
            List.sort
              (fun (a : Session.outcome) b ->
                compare a.Session.session b.Session.session)
              (Server.outcomes server)
          in
          ( List.map (fun (o : Session.outcome) -> o.Session.code) by_sid,
            List.exists Loopback.torn clients )))

let test_chaos_wire_sweep () =
  let image, _, _, _ = synth_image ~seed:9 ~ops:150 in
  let faulted = ref 0 in
  for seed = 1 to 15 do
    let codes1, torn1 = chaos_round ~seed image in
    let codes2, torn2 = chaos_round ~seed image in
    check (Alcotest.list tcode)
      (Printf.sprintf "seed %d wire faults are deterministic" seed)
      codes1 codes2;
    check Alcotest.bool
      (Printf.sprintf "seed %d tear pattern is deterministic" seed)
      torn1 torn2;
    if torn1 || List.exists (fun c -> c <> Frame.Ok_clean && c <> Frame.Ok_races) codes1
    then incr faulted
  done;
  check Alcotest.bool "the campaign actually faulted something" true
    (!faulted > 0)

(* A credit grant that comes late -- the drain runs only when another
   thread ticks the deferred-ingest server -- must be waited for, however
   long it takes: [run_log] blocks on the reply instead of giving up
   after a spin count and closing a partial stream. *)
let test_late_credit () =
  let image, base, offline, _ = workload_image "mm" ~inject_race:true in
  let session = { Session.default_config with credit_window = 1024 } in
  check Alcotest.bool "fixture overflows the credit window" true
    (Bytes.length image > 1024);
  with_server ~now_ms:(fun () -> 0) (mk_cfg ~session ~defer:true ())
    (fun server ->
      let c = Loopback.connect server in
      let finished = Atomic.make false in
      let d =
        Domain.spawn (fun () ->
            Loopback.run_log ~chaos:false ~frame:256 c image;
            Atomic.set finished true)
      in
      (* the first grant arrives only after the client has waited *)
      Unix.sleepf 0.3;
      while not (Atomic.get finished) do
        Server.tick server;
        Unix.sleepf 0.001
      done;
      Domain.join d;
      Server.tick server (* drains the CLOSE *);
      let o = outcome_exn server (sid_of c) in
      check tcode "late credit still completes" (expect_code offline)
        o.Session.code;
      check slist "late credit verdict" offline (norm base o.Session.reports);
      check Alcotest.int "every byte analyzed" (Bytes.length image)
        o.Session.bytes_analyzed)

(* -- acceptance soak ---------------------------------------------------- *)

let test_soak () =
  let image, base, offline, stats = workload_image "mm" ~inject_race:true in
  let window = 4096 in
  check Alcotest.bool "fixture overflows the credit window" true
    (Bytes.length image > window);
  Metrics.reset_all ();
  let clock = Atomic.make 0 in
  let session =
    { Session.default_config with credit_window = window; idle_ms = Some 10_000 }
  in
  let budget = 256 * 1024 in
  with_server
    ~now_ms:(fun () -> Atomic.get clock)
    (mk_cfg ~session ~budget ~pool:4 ())
    (fun server ->
      let healthy = List.init 6 (fun _ -> Loopback.connect server) in
      let torn_c = Loopback.connect server in
      let over_c = Loopback.connect server in
      let idle_c = Loopback.connect server in
      let doms =
        List.map
          (fun c ->
            Domain.spawn (fun () -> Loopback.run_log ~chaos:false ~frame:1024 c image))
          healthy
      in
      (* torn: half a stream, then the pipe breaks *)
      Loopback.hello ~chaos:false torn_c;
      let torn_sent =
        Loopback.pump ~chaos:false torn_c image ~pos:0
          ~len:(Bytes.length image / 2)
      in
      Loopback.disconnect torn_c;
      (* over budget: one DATA frame past the whole credit window *)
      Loopback.hello ~chaos:false over_c;
      let big = min (Bytes.length image) (2 * window) in
      ignore
        (Loopback.pump ~chaos:false ~ignore_credit:true ~frame:big over_c image
           ~pos:0 ~len:big);
      (* idle: a HELLO, then silence *)
      Loopback.hello ~chaos:false idle_c;
      List.iter Domain.join doms;
      Server.quiesce server;
      ignore (await_outcomes server 8);
      (* only the idler is left; let its timeout expire *)
      Atomic.set clock 60_000;
      Server.tick server;
      Server.quiesce server;
      check Alcotest.int "all nine sessions settled" 9
        (List.length (Server.outcomes server));
      check Alcotest.int "no sessions left" 0 (Server.active_sessions server);
      check Alcotest.int "queue accounting returns to zero" 0
        (Server.queued_bytes server);
      List.iteri
        (fun i c ->
          let o = outcome_exn server (sid_of c) in
          let label what = Printf.sprintf "healthy %d %s" i what in
          check tcode (label "code") (expect_code offline) o.Session.code;
          check slist (label "verdict == offline replay") offline
            (norm base o.Session.reports);
          check Alcotest.int (label "events") stats.Recorder.events
            o.Session.events;
          check Alcotest.int (label "bytes") (Bytes.length image)
            o.Session.bytes_analyzed)
        healthy;
      let ot = outcome_exn server (sid_of torn_c) in
      check tcode "torn session typed" Frame.Err_torn ot.Session.code;
      check Alcotest.bool "torn verdict names the prefix" true
        (contains ot.Session.message "analyzed prefix up to byte");
      check Alcotest.bool "torn prefix within what was sent" true
        (ot.Session.bytes_analyzed <= torn_sent);
      let oo = outcome_exn server (sid_of over_c) in
      check tcode "overrunner typed" Frame.Err_protocol oo.Session.code;
      check Alcotest.bool "overrun names its budget" true
        (contains oo.Session.message "credit exceeded");
      let oi = outcome_exn server (sid_of idle_c) in
      check tcode "idler typed" Frame.Err_idle oi.Session.code;
      check Alcotest.bool "idler is retryable" true
        (Frame.retryable oi.Session.code);
      (* bounded queue memory, and the overload counters are published *)
      let snap = Metrics.snapshot () in
      check Alcotest.bool "queue high-water bounded" true
        (List.assoc "serve.queued.bytes" snap <= budget + window);
      check Alcotest.bool "shed counter published" true
        (List.mem_assoc "serve.shed.sessions" snap);
      check Alcotest.bool "violation counter live" true
        (List.assoc "serve.credit.violations" snap >= 1))

(* ----------------------------------------------------------------------- *)

let () =
  Alcotest.run "serve"
    [
      ( "frame",
        [
          Alcotest.test_case "round trip" `Quick test_frame_round_trip;
          Alcotest.test_case "typed errors" `Quick test_frame_errors;
        ] );
      ( "config",
        [
          Alcotest.test_case "create validates session" `Quick
            test_create_validates_session;
          Alcotest.test_case "validate bounds the pool" `Quick
            test_validate_bounds_pool;
        ] );
      ( "verdicts",
        [
          Alcotest.test_case "stream == offline" `Quick test_stream_matches_offline;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "every prefix" `Quick test_every_prefix;
          Alcotest.test_case "session isolation" `Quick test_isolation;
          Alcotest.test_case "huge state id" `Quick test_huge_state_id;
          Alcotest.test_case "backpressure bounds" `Quick test_backpressure_bounds;
          Alcotest.test_case "late credit is waited for" `Quick test_late_credit;
          QCheck_alcotest.to_alcotest prop_session_bounded;
        ] );
      ( "overload",
        [
          Alcotest.test_case "shed" `Quick test_overload_shed;
          Alcotest.test_case "park" `Quick test_overload_park;
          Alcotest.test_case "block" `Quick test_overload_block;
        ] );
      ( "timeouts",
        [
          Alcotest.test_case "deadline" `Quick test_deadline;
          Alcotest.test_case "idle" `Quick test_idle;
        ] );
      ( "chaos",
        [ Alcotest.test_case "wire fault sweep" `Quick test_chaos_wire_sweep ] );
      ( "soak",
        [ Alcotest.test_case "nine concurrent sessions" `Quick test_soak ] );
    ]
