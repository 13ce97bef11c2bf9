(* Event-log record/replay tests, all through the one replay engine
   ([Stream_replay.run_file], as [racedetect replay] runs it).

   The contract under test: (1) round trip — replaying a recorded log
   under SF-Order reports exactly the races the live detector reports on
   the same execution; (2) sharded replay is shard-count-invariant;
   (3) every malformed log (bad magic, truncated anywhere, bit flips,
   out-of-range state IDs, overlong varints) is a typed [Torn] status
   with a byte offset, never an exception — including the torn logs
   produced by chaos faults at the Record/Log_flush sites;
   (4) Trace.accesses is in its documented deterministic order. *)

module Log_format = Sfr_eventlog.Log_format
module Recorder = Sfr_eventlog.Recorder
module Stream_replay = Sfr_eventlog.Stream_replay
module Events = Sfr_runtime.Events
module Serial_exec = Sfr_runtime.Serial_exec
module Par_exec = Sfr_runtime.Par_exec
module Trace = Sfr_runtime.Trace
module Workload = Sfr_workloads.Workload
module Registry = Sfr_workloads.Registry
module Synthetic = Sfr_workloads.Synthetic
module Detector = Sfr_detect.Detector
module Sf_order = Sfr_detect.Sf_order
module Race = Sfr_detect.Race
module Chaos = Sfr_chaos.Chaos

let check = Alcotest.check

(* -- helpers ----------------------------------------------------------- *)

let with_temp_log f =
  let path = Filename.temp_file "sfr_test" ".sflog" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = Bytes.create n in
  really_input ic b 0 n;
  close_in ic;
  b

(* Record [program] and return the recorder stats and the log image. *)
let record program =
  with_temp_log (fun path ->
      let rec_, cb, root = Recorder.create ~path () in
      program cb root;
      let stats = Recorder.close rec_ in
      (stats, read_file path))

(* Replay a log image through the file path the CLI uses. *)
let replay mode image =
  with_temp_log (fun path ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc image);
      Stream_replay.run_file mode path)

let serial p cb root = ignore (Serial_exec.run cb ~root p)

(* Races of a live serial SF-Order run, normalized against [base] so
   verdicts compare across program instantiations. *)
let norm base reports =
  List.map
    (fun (r : Race.report) ->
      Printf.sprintf "loc+%d %s f%d f%d x%d" (r.Race.loc - base)
        (Format.asprintf "%a" Race.pp_kind r.Race.kind)
        r.Race.prev_future r.Race.cur_future r.Race.count)
    reports

let live_races base run =
  let det = Sf_order.make () in
  run det.Detector.callbacks det.Detector.root;
  norm base (Race.reports det.Detector.races)

let replayed_races base mode image =
  let v = replay mode image in
  match v.Stream_replay.status with
  | Stream_replay.Complete -> norm base v.Stream_replay.reports
  | s -> Alcotest.failf "replay failed: %s" (Stream_replay.status_to_string s)

let replay_races base image =
  replayed_races base (Stream_replay.Detector (Sf_order.make ())) image

let slist = Alcotest.list Alcotest.string

(* -- round trips -------------------------------------------------------- *)

let test_round_trip_workloads () =
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun inject_race ->
          let live =
            let i = w.Workload.instantiate ~inject_race Workload.Tiny in
            live_races i.Workload.mem_base (fun cb root ->
                serial (fun () -> i.Workload.program ()) cb root)
          in
          let i = w.Workload.instantiate ~inject_race Workload.Tiny in
          let stats, log =
            record (fun cb root -> serial (fun () -> i.Workload.program ()) cb root)
          in
          check Alcotest.int "one worker stream" 1 stats.Recorder.workers;
          check Alcotest.bool "events recorded" true (stats.Recorder.events > 0);
          check slist
            (Printf.sprintf "%s inject:%b replay == live" w.Workload.name inject_race)
            live
            (replay_races i.Workload.mem_base log);
          if inject_race then
            check Alcotest.bool
              (w.Workload.name ^ " injected race replays")
              true
              (replay_races i.Workload.mem_base log <> []))
        [ false; true ])
    Registry.all

let test_round_trip_synthetic () =
  for seed = 1 to 10 do
    let t = Synthetic.generate ~seed ~ops:150 ~depth:4 ~locs:8 () in
    let live =
      let i = Synthetic.instantiate t in
      live_races i.Synthetic.mem_base (fun cb root ->
          serial (fun () -> i.Synthetic.program ()) cb root)
    in
    let i = Synthetic.instantiate t in
    let _, log =
      record (fun cb root -> serial (fun () -> i.Synthetic.program ()) cb root)
    in
    check slist
      (Printf.sprintf "seed %d replay == live" seed)
      live
      (replay_races i.Synthetic.mem_base log)
  done

(* A parallel recording has no canonical event order, but the race
   verdict is schedule-independent: racy locations must match the serial
   live run. *)
let test_parallel_log_replays () =
  let locs_of races =
    List.sort_uniq compare
      (List.filter_map
         (fun s -> Scanf.sscanf_opt s "loc+%d " (fun l -> l))
         races)
  in
  for seed = 1 to 5 do
    let t = Synthetic.generate ~seed ~ops:120 ~depth:4 ~locs:6 () in
    let live =
      let i = Synthetic.instantiate t in
      live_races i.Synthetic.mem_base (fun cb root ->
          serial (fun () -> i.Synthetic.program ()) cb root)
    in
    let i = Synthetic.instantiate t in
    let _, log =
      record (fun cb root ->
          ignore (Par_exec.run ~workers:3 cb ~root (fun () -> i.Synthetic.program ())))
    in
    check
      (Alcotest.list Alcotest.int)
      (Printf.sprintf "seed %d parallel-log racy locations" seed)
      (locs_of live)
      (locs_of (replay_races i.Synthetic.mem_base log))
  done

(* -- sharded replay ----------------------------------------------------- *)

let shard_races base log shards =
  replayed_races base (Stream_replay.Sharded shards) log

let test_shard_invariance () =
  for seed = 1 to 5 do
    let t = Synthetic.generate ~seed ~ops:150 ~depth:4 ~locs:6 () in
    let i = Synthetic.instantiate t in
    let base = i.Synthetic.mem_base in
    let _, log =
      record (fun cb root -> serial (fun () -> i.Synthetic.program ()) cb root)
    in
    let one = shard_races base log 1 in
    check slist (Printf.sprintf "seed %d: 2 shards == 1" seed) one
      (shard_races base log 2);
    check slist (Printf.sprintf "seed %d: 8 shards == 1" seed) one
      (shard_races base log 8);
    (* and the sharded checker agrees with plain replay detection *)
    check slist
      (Printf.sprintf "seed %d: sharded == replayed detector" seed)
      (replay_races base log) one
  done

let test_shard_of () =
  check Alcotest.int "1 shard is shard 0" 0 (Stream_replay.shard_of ~loc:12345 ~shards:1);
  let hit = Array.make 8 0 in
  for loc = 0 to 1023 do
    let s = Stream_replay.shard_of ~loc ~shards:8 in
    check Alcotest.bool "in range" true (s >= 0 && s < 8);
    hit.(s) <- hit.(s) + 1
  done;
  Array.iteri
    (fun i n ->
      check Alcotest.bool (Printf.sprintf "shard %d populated" i) true (n > 32))
    hit

(* Out-of-range shard counts are refused by [create], before any shard
   domain could be spawned; no test here spawns that many. *)
let test_shard_count_bounds () =
  let rejects n =
    match Stream_replay.create (Stream_replay.Sharded n) with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check Alcotest.bool "0 shards rejected" true (rejects 0);
  check Alcotest.bool "max_shards + 1 rejected" true
    (rejects (Stream_replay.max_shards + 1));
  check Alcotest.bool "max_shards accepted" false
    (rejects Stream_replay.max_shards)

(* -- malformed logs ----------------------------------------------------- *)

let expect_error name bytes pred =
  match (replay (Stream_replay.Detector (Sf_order.make ())) bytes).status with
  | Stream_replay.Complete -> Alcotest.failf "%s: accepted a malformed log" name
  | Stream_replay.Torn e ->
      check Alcotest.bool
        (Printf.sprintf "%s: %s" name (Log_format.error_to_string e))
        true (pred e)
  | s ->
      Alcotest.failf "%s: not a decode error: %s" name
        (Stream_replay.status_to_string s)

let valid_log_image () =
  let t = Synthetic.generate ~seed:3 ~ops:80 ~depth:3 ~locs:4 () in
  let i = Synthetic.instantiate t in
  snd (record (fun cb root -> serial (fun () -> i.Synthetic.program ()) cb root))

let test_malformed_corpus () =
  let img = valid_log_image () in
  expect_error "empty" Bytes.empty (function
    | Log_format.Truncated _ | Log_format.Bad_magic _ -> true
    | _ -> false);
  let bad_magic = Bytes.copy img in
  Bytes.blit_string "XXXX" 0 bad_magic 0 4;
  expect_error "bad magic" bad_magic (function
    | Log_format.Bad_magic { got } -> got = "XXXX"
    | _ -> false);
  let bad_version = Bytes.copy img in
  Bytes.set bad_version 4 '\042';
  expect_error "bad version" bad_version (function
    | Log_format.Bad_version { got } -> got = 42
    | _ -> false);
  let flipped = Bytes.copy img in
  let mid = 5 + ((Bytes.length img - 5) / 2) in
  Bytes.set flipped mid (Char.chr (Char.code (Bytes.get flipped mid) lxor 0xFF));
  expect_error "flipped payload byte" flipped (fun _ -> true);
  let bad_crc = Bytes.copy img in
  let last = Bytes.length img - 1 in
  Bytes.set bad_crc last (Char.chr (Char.code (Bytes.get bad_crc last) lxor 1));
  expect_error "bad crc" bad_crc (function
    | Log_format.Bad_crc _ -> true
    | _ -> false)

(* Any strict prefix of a valid log is invalid (the footer is mandatory)
   and must surface as a typed error with a sane offset — this is the
   torn/truncated sweep at every byte boundary. *)
let test_every_prefix_rejected () =
  let img = valid_log_image () in
  for len = 0 to Bytes.length img - 1 do
    expect_error
      (Printf.sprintf "prefix %d/%d" len (Bytes.length img))
      (Bytes.sub img 0 len)
      (fun e ->
        match e with
        | Log_format.Truncated { offset; _ }
        | Log_format.Bad_varint { offset }
        | Log_format.Bad_opcode { offset; _ }
        | Log_format.State_out_of_range { offset; _ }
        | Log_format.Corrupt { offset; _ } ->
            offset <= len
        | Log_format.Bad_magic _ | Log_format.Bad_version _ | Log_format.Bad_crc _
          ->
            true)
  done

(* Hand-crafted logs: [chunks] are (worker, payload) pairs in file
   order, closed by a footer with the given counts and a correct CRC. *)
let craft_chunks ~chunks ~events ~states ~workers =
  let b = Buffer.create 64 in
  Buffer.add_string b Log_format.magic;
  Buffer.add_char b (Char.chr Log_format.version);
  let crc =
    List.fold_left
      (fun crc (worker, payload) ->
        Buffer.add_char b '\001';
        Log_format.write_varint b worker;
        Log_format.write_varint b (Bytes.length payload);
        Buffer.add_bytes b payload;
        Log_format.crc32_update crc payload ~pos:0 ~len:(Bytes.length payload))
      Log_format.crc32_init chunks
  in
  Buffer.add_char b '\000';
  Log_format.write_varint b events;
  Log_format.write_varint b states;
  Log_format.write_varint b workers;
  for i = 0 to 3 do
    Buffer.add_char b (Char.chr ((crc lsr (8 * i)) land 0xFF))
  done;
  Buffer.to_bytes b

(* One worker-0 chunk: state IDs past the footer bound, and an overlong
   varint, both named by offset. *)
let craft_log ~payload ~events ~states ~workers =
  craft_chunks ~chunks:[ (0, payload) ] ~events ~states ~workers

let test_crafted_corruption () =
  (* Put { cur = 9 } against a footer declaring only 3 states *)
  let p = Buffer.create 8 in
  let _ = Log_format.write_event p ~last_loc:0 (Log_format.Put { cur = 9 }) in
  expect_error "state out of range"
    (craft_log ~payload:(Buffer.to_bytes p) ~events:1 ~states:3 ~workers:1)
    (function
      | Log_format.State_out_of_range { id = 9; bound = 3; offset } -> offset >= 5
      | _ -> false);
  (* opcode 0x3F is unused *)
  expect_error "bad opcode"
    (craft_log ~payload:(Bytes.make 1 '\063') ~events:1 ~states:1 ~workers:1)
    (function
      | Log_format.Bad_opcode { opcode = 0x3F; _ } -> true
      | _ -> false);
  (* 11 continuation bytes: varint longer than any 63-bit int *)
  let overlong = Bytes.make 12 '\xFF' in
  Bytes.set overlong 0 '\007' (* Read opcode *);
  expect_error "overlong varint"
    (craft_log ~payload:overlong ~events:1 ~states:1 ~workers:1)
    (function
      | Log_format.Bad_varint { offset } -> offset >= 5
      | _ -> false);
  (* footer undercounts the recorded events *)
  let p = Buffer.create 8 in
  let _ = Log_format.write_event p ~last_loc:0 (Log_format.Put { cur = 0 }) in
  let _ = Log_format.write_event p ~last_loc:0 (Log_format.Put { cur = 0 }) in
  expect_error "event count mismatch"
    (craft_log ~payload:(Buffer.to_bytes p) ~events:1 ~states:1 ~workers:1)
    (function
      | Log_format.Corrupt _ -> true
      | _ -> false)

(* Two worker streams whose file order puts a join ahead of the joined
   strand's last access. The merge must hold the join until the strand
   ends ([Returned] for a sync, [Put] for a get); otherwise the
   continuation's write is checked before the child's and races
   falsely. A serial-only detector must refuse such a log. *)
let test_join_waits_for_end () =
  let payload evs =
    let p = Buffer.create 16 in
    ignore
      (List.fold_left
         (fun last ev -> Log_format.write_event p ~last_loc:last ev)
         0 evs);
    Buffer.to_bytes p
  in
  let loc = 7 in
  let image ~parent ~child =
    craft_chunks
      ~chunks:[ (0, payload parent); (1, payload child) ]
      ~events:(List.length parent + List.length child)
      ~states:4 ~workers:2
  in
  let expect_clean name ~parent ~child =
    let image = image ~parent ~child in
    List.iter
      (fun mode -> check slist name [] (replayed_races 0 mode image))
      [ Stream_replay.Detector (Sf_order.make ()); Stream_replay.Sharded 2 ]
  in
  let spawn_parent =
    [
      Log_format.Spawn { cur = 0; child = 1; cont = 2 };
      Sync { cur = 2; spawned_lasts = [ 1 ]; created_firsts = []; next = 3 };
      Write { cur = 3; loc };
    ]
  and spawn_child =
    [ Log_format.Write { cur = 1; loc }; Returned { cont = 2; child_last = 1 } ]
  in
  expect_clean "sync waits for the spawned child's return" ~parent:spawn_parent
    ~child:spawn_child;
  (* a serial-only detector refuses the second worker stream *)
  (match
     (replay
        (Stream_replay.Detector (Sfr_detect.Multibags.make ()))
        (image ~parent:spawn_parent ~child:spawn_child))
       .Stream_replay.status
   with
  | Stream_replay.Detector_failed _ -> ()
  | s ->
      Alcotest.failf "multibags on two streams: %s"
        (Stream_replay.status_to_string s));
  expect_clean "get waits for the future's put"
    ~parent:
      [
        Log_format.Create { cur = 0; child = 1; cont = 2 };
        Get { cur = 2; put = 1; next = 3 };
        Write { cur = 3; loc };
      ]
    ~child:
      [
        Write { cur = 1; loc };
        Put { cur = 1 };
        Returned { cont = 2; child_last = 1 };
      ]

(* A log whose access deltas jump by about 2^40, up and down: location
   IDs come from an untrusted file, so the access history must index
   them without a span-sized array. One write-write and one read-write
   race among far-apart locations; every later access is ordered. *)
let test_far_locations () =
  (* access locations must be non-negative; deltas may be either sign *)
  let far k = ((k + 50) * (1 lsl 40)) + k in
  let payload =
    let p = Buffer.create 256 in
    let evs =
      [
        Log_format.Spawn { cur = 0; child = 1; cont = 2 };
        Write { cur = 1; loc = far 3 };
        Read { cur = 1; loc = far (-5) };
        Returned { cont = 2; child_last = 1 };
        Write { cur = 2; loc = far 3 };
        Write { cur = 2; loc = far (-5) };
        Sync { cur = 2; spawned_lasts = [ 1 ]; created_firsts = []; next = 3 };
      ]
      @ List.init 40 (fun k ->
            let loc = far (if k mod 2 = 0 then k else -k) in
            if k mod 3 = 0 then Log_format.Read { cur = 3; loc } else Write { cur = 3; loc })
    in
    ignore (List.fold_left (fun last ev -> Log_format.write_event p ~last_loc:last ev) 0 evs);
    (Buffer.to_bytes p, List.length evs)
  in
  let image =
    let bytes, events = payload in
    craft_chunks ~chunks:[ (0, bytes) ] ~events ~states:4 ~workers:1
  in
  let expect name mode =
    let v = replay mode image in
    check Alcotest.string (name ^ " status") "complete"
      (Stream_replay.status_to_string v.Stream_replay.status);
    check (Alcotest.list Alcotest.int) (name ^ " racy locations")
      [ far (-5); far 3 ] v.Stream_replay.racy_locations
  in
  let det = (Option.get (Sfr_detect.Registry.find "sf-order")).Sfr_detect.Registry.make () in
  expect "inline" (Stream_replay.Detector det);
  check Alcotest.bool "inline history words bounded" true (det.Detector.history_words () < 50_000);
  let top = (Gc.quick_stat ()).Gc.top_heap_words in
  expect "sharded" (Stream_replay.Sharded 2);
  check Alcotest.bool "sharded replay heap bounded" true
    ((Gc.quick_stat ()).Gc.top_heap_words - top < 1_000_000)

(* Chaos faults at the Record / Log_flush sites abandon recordings
   mid-write; whatever ends up on disk must never crash the reader. *)
let test_chaos_torn_logs () =
  let cfg =
    {
      Chaos.default_config with
      Chaos.fault_rate = 0.02;
      fault_sites = [ Chaos.Record; Chaos.Log_flush ];
      max_faults = 1;
    }
  in
  let faulted = ref 0 in
  for seed = 1 to 20 do
    let t = Synthetic.generate ~seed ~ops:120 ~depth:4 ~locs:6 () in
    let i = Synthetic.instantiate t in
    with_temp_log (fun path ->
        let rec_, cb, root = Recorder.create ~buf_size:256 ~path () in
        let torn =
          match
            Chaos.with_armed ~config:cfg ~seed (fun () ->
                serial (fun () -> i.Synthetic.program ()) cb root)
          with
          | () ->
              ignore (Recorder.close rec_);
              false
          | exception Chaos.Injected _ ->
              incr faulted;
              true
        in
        let v =
          Stream_replay.run_file (Stream_replay.Detector (Sf_order.make ())) path
        in
        match v.Stream_replay.status with
        | Stream_replay.Complete ->
            check Alcotest.bool "complete log is complete" false torn;
            check Alcotest.bool "events readable" true
              (v.Stream_replay.events_applied >= 0)
        | Stream_replay.Torn e ->
            check Alcotest.bool
              (Printf.sprintf "seed %d torn log is a typed error: %s" seed
                 (Log_format.error_to_string e))
              true torn
        | st ->
            Alcotest.failf "seed %d: torn log is not a decode error: %s" seed
              (Stream_replay.status_to_string st))
  done;
  check Alcotest.bool "some recordings actually faulted" true (!faulted > 0)

(* -- recorder odds and ends --------------------------------------------- *)

let test_close_idempotent () =
  let t = Synthetic.generate ~seed:1 ~ops:60 ~depth:3 ~locs:4 () in
  let i = Synthetic.instantiate t in
  with_temp_log (fun path ->
      let rec_, cb, root = Recorder.create ~path () in
      serial (fun () -> i.Synthetic.program ()) cb root;
      let a = Recorder.close rec_ in
      let b = Recorder.close rec_ in
      check Alcotest.bool "same stats" true (a = b))

(* The recorder/replay counters are process-global and accumulate across
   every test above; [Metrics.reset_all] is the test-only escape hatch
   that lets this accounting check start from zero. *)
let test_metrics_accounting () =
  let module Metrics = Sfr_obs.Metrics in
  Metrics.enable ();
  Metrics.reset_all ();
  let t = Synthetic.generate ~seed:11 ~ops:100 ~depth:4 ~locs:6 () in
  let i = Synthetic.instantiate t in
  let stats, log =
    record (fun cb root -> serial (fun () -> i.Synthetic.program ()) cb root)
  in
  let get name =
    Option.value ~default:0 (List.assoc_opt name (Metrics.snapshot ()))
  in
  check Alcotest.int "eventlog.events matches recorder stats"
    stats.Recorder.events (get "eventlog.events");
  check Alcotest.bool "bytes_written is positive" true
    (get "eventlog.bytes_written" > 0);
  ignore (replay_races i.Synthetic.mem_base log);
  check Alcotest.int "replay consumed every recorded event"
    stats.Recorder.events
    (get "eventlog.stream.events");
  Metrics.reset_all ()

let test_trace_accesses_sorted () =
  let w = Option.get (Registry.find "mm") in
  let i = w.Workload.instantiate ~inject_race:false Workload.Tiny in
  let trace, cb, root = Trace.make ~log_accesses:true () in
  serial (fun () -> i.Workload.program ()) cb root;
  let accs = Trace.accesses trace in
  check Alcotest.bool "accesses logged" true (accs <> []);
  let key (a : Trace.access) = (a.Trace.node, a.Trace.loc, a.Trace.is_write) in
  let rec sorted = function
    | a :: (b :: _ as rest) -> key a <= key b && sorted rest
    | _ -> true
  in
  check Alcotest.bool "sorted by (node, loc, kind)" true (sorted accs)

let () =
  Alcotest.run "eventlog"
    [
      ( "round-trip",
        [
          Alcotest.test_case "registry workloads" `Quick test_round_trip_workloads;
          Alcotest.test_case "synthetic seeds" `Quick test_round_trip_synthetic;
          Alcotest.test_case "parallel recording" `Quick test_parallel_log_replays;
          Alcotest.test_case "joins wait for the joined strand" `Quick
            test_join_waits_for_end;
          Alcotest.test_case "far-apart locations" `Quick test_far_locations;
        ] );
      ( "shards",
        [
          Alcotest.test_case "shard-count invariance" `Quick test_shard_invariance;
          Alcotest.test_case "partition function" `Quick test_shard_of;
          Alcotest.test_case "shard count bounds" `Quick test_shard_count_bounds;
        ] );
      ( "malformed",
        [
          Alcotest.test_case "corpus" `Quick test_malformed_corpus;
          Alcotest.test_case "every prefix rejected" `Quick
            test_every_prefix_rejected;
          Alcotest.test_case "crafted corruption" `Quick test_crafted_corruption;
          Alcotest.test_case "chaos-torn logs" `Quick test_chaos_torn_logs;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "close is idempotent" `Quick test_close_idempotent;
          Alcotest.test_case "metrics accounting" `Quick test_metrics_accounting;
          Alcotest.test_case "trace accesses sorted" `Quick
            test_trace_accesses_sorted;
        ] );
    ]
