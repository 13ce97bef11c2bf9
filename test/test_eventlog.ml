(* Event-log record/replay tests, all through the one replay engine
   ([Stream_replay.run_file], as [racedetect replay] runs it).

   The contract under test: (1) round trip — replaying a recorded log
   under SF-Order reports exactly the races the live detector reports on
   the same execution; (2) sharded replay is shard-count-invariant;
   (3) every malformed log (bad magic, truncated anywhere, bit flips,
   out-of-range state IDs, overlong varints) is a typed [Torn] status
   with a byte offset, never an exception — including the torn logs
   produced by chaos faults at the Record/Log_flush sites;
   (4) Trace.accesses is in its documented deterministic order;
   (5) replaying a log into a Trace (as [racedetect analyze] does)
   rebuilds the recorded dag and access log; (6) a mutated log, fed in
   any slicing, ends in a typed status with heap growth bounded by its
   bytes, whatever IDs it names; (7) the decoder's rows materialize
   back to the events [Log_format.write_event] wrote. *)

module Log_format = Sfr_eventlog.Log_format
module Recorder = Sfr_eventlog.Recorder
module Stream_reader = Sfr_eventlog.Stream_reader
module Stream_replay = Sfr_eventlog.Stream_replay
module Events = Sfr_runtime.Events
module Serial_exec = Sfr_runtime.Serial_exec
module Par_exec = Sfr_runtime.Par_exec
module Trace = Sfr_runtime.Trace
module Dag = Sfr_dag.Dag
module Dag_algo = Sfr_dag.Dag_algo
module Workload = Sfr_workloads.Workload
module Registry = Sfr_workloads.Registry
module Synthetic = Sfr_workloads.Synthetic
module Detector = Sfr_detect.Detector
module Sf_order = Sfr_detect.Sf_order
module Race = Sfr_detect.Race
module Naive_detector = Sfr_detect.Naive_detector
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

(* Replay a log image through the file path the CLI uses: [run] is
   [Stream_replay.run_file det] or a {!sharded} replay. *)
let replay run image =
  with_temp_log (fun path ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc image);
      run path)

let inline () = Stream_replay.run_file (Sf_order.make ())
let sharded n = Stream_replay.run_sharded ~shards:n (fun () -> Sf_order.make ())

let serial p cb root = ignore (Serial_exec.run cb ~root p)

(* Feed [image] to a fresh inline SF-Order replay in the given slice
   sizes (cycled), stepping after each, then close. *)
let replay_sliced image slices =
  let t = Stream_replay.create (Sf_order.make ()) in
  let len = Bytes.length image in
  let pos = ref 0 and k = ref 0 in
  while !pos < len do
    let n = min slices.(!k mod Array.length slices) (len - !pos) in
    Stream_replay.feed t image ~pos:!pos ~len:n;
    Stream_replay.step t;
    pos := !pos + n;
    incr k
  done;
  Stream_replay.close t

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

let replayed_races base run image =
  let v = replay run image in
  match v.Stream_replay.status with
  | Stream_replay.Complete -> norm base v.Stream_replay.reports
  | s -> Alcotest.failf "replay failed: %s" (Stream_replay.status_to_string s)

let replay_races base image =
  replayed_races base (inline ()) image

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
let locs_of races =
  List.sort_uniq compare
    (List.filter_map (fun s -> Scanf.sscanf_opt s "loc+%d " (fun l -> l)) races)

let test_parallel_log_replays () =
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

(* The same, recorded in many small chunks per worker and fed in small
   slices, so the merge holds blocked events of several streams across
   feeds. *)
let prop_parallel_log_slices =
  QCheck2.Test.make ~name:"parallel log, small chunks, any slicing" ~count:30
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 40 400) (int_range 1 64))
    (fun (seed, buf_size, slice) ->
      let t = Synthetic.generate ~seed ~ops:200 ~depth:4 ~locs:6 () in
      let live =
        let i = Synthetic.instantiate t in
        live_races i.Synthetic.mem_base (serial i.Synthetic.program)
      in
      let i = Synthetic.instantiate t in
      let log =
        with_temp_log (fun path ->
            let rec_, cb, root = Recorder.create ~buf_size ~path () in
            ignore (Par_exec.run ~workers:3 cb ~root i.Synthetic.program);
            ignore (Recorder.close rec_);
            read_file path)
      in
      let v = replay_sliced log [| slice |] in
      v.Stream_replay.status = Stream_replay.Complete
      && locs_of live = locs_of (norm i.Synthetic.mem_base v.Stream_replay.reports))

(* -- rebuilding the recorded dag ------------------------------------------ *)

let dag_equal a b =
  let open Dag_algo in
  let ca = counts a and cb = counts b in
  ca = cb
  && List.init (Dag.n_nodes a) Fun.id
     |> List.for_all (fun v ->
            Dag.kind_of a v = Dag.kind_of b v
            && Dag.future_of a v = Dag.future_of b v
            && Dag.cost_of a v = Dag.cost_of b v
            && List.sort compare (Dag.preds a v) = List.sort compare (Dag.preds b v))
  && List.init (Dag.n_futures a) Fun.id
     |> List.for_all (fun f ->
            Dag.last_of a f = Dag.last_of b f
            && Dag.fparent a f = Dag.fparent b f
            && Dag.first_of a f = Dag.first_of b f)
  && List.sort compare (Dag.fake_joins a) = List.sort compare (Dag.fake_joins b)

(* Run [exec] with a live Trace beside the Recorder, then replay the log
   into the Trace view that [racedetect analyze] reads it through. *)
let record_and_rebuild exec =
  let live, tcb, troot = Trace.make ~log_accesses:true () in
  let _, image =
    record (fun rcb rroot ->
        exec (Events.pair tcb rcb) (Events.Pair_state (troot, rroot)))
  in
  let rebuilt, det = Naive_detector.trace_detector () in
  let v = replay (Stream_replay.run_file det) image in
  (v.Stream_replay.status, live, rebuilt)

let naive_racy trace =
  (Naive_detector.analyze (Trace.dag trace) (Trace.accesses trace))
    .Naive_detector.racy_locations

(* Saving an execution is recording its .sflog; loading it is replaying
   the log into a Trace. A serial log rebuilds the identical dag and
   access log. A parallel log merges in an order of its own, so node IDs
   differ, but the shape, work, span and naive verdict do not. *)
let prop_log_rebuilds_trace =
  QCheck2.Test.make ~name:"dag save/load round-trip" ~count:40
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let t = Synthetic.generate ~seed ~ops:120 ~depth:4 ~locs:6 () in
      let rebuild exec =
        let i = Synthetic.instantiate t in
        record_and_rebuild (fun cb root -> exec cb root i.Synthetic.program)
      in
      let serial_ok =
        match rebuild (fun cb root p -> serial p cb root) with
        | Stream_replay.Complete, live, rebuilt ->
            dag_equal (Trace.dag live) (Trace.dag rebuilt)
            && Trace.accesses live = Trace.accesses rebuilt
        | _ -> false
      in
      let parallel_ok =
        match
          rebuild (fun cb root p -> ignore (Par_exec.run ~workers:2 cb ~root p))
        with
        | Stream_replay.Complete, live, rebuilt ->
            let a = Trace.dag live and b = Trace.dag rebuilt in
            Dag_algo.counts a = Dag_algo.counts b
            && Dag_algo.work a = Dag_algo.work b
            && Dag_algo.span a Dag_algo.Full = Dag_algo.span b Dag_algo.Full
            && naive_racy live = naive_racy rebuilt
        | _ -> false
      in
      serial_ok && parallel_ok)

let prop_rebuilt_reachability =
  QCheck2.Test.make ~name:"loaded dag has identical reachability" ~count:20
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let t = Synthetic.generate ~seed ~ops:120 ~depth:4 ~locs:6 () in
      let i = Synthetic.instantiate t in
      match
        record_and_rebuild (fun cb root -> serial i.Synthetic.program cb root)
      with
      | Stream_replay.Complete, live, rebuilt ->
          let a = Trace.dag live and b = Trace.dag rebuilt in
          let oa = Dag_algo.build_oracle a Dag_algo.Full in
          let ob = Dag_algo.build_oracle b Dag_algo.Full in
          let n = Dag.n_nodes a in
          let rng = Sfr_support.Prng.create (seed + 1) in
          Dag.n_nodes b = n
          && List.for_all
               (fun _ ->
                 let u = Sfr_support.Prng.int rng n
                 and v = Sfr_support.Prng.int rng n in
                 Dag_algo.oracle_reaches oa u v = Dag_algo.oracle_reaches ob u v)
               (List.init 200 Fun.id)
      | _ -> false)

(* -- sharded replay ----------------------------------------------------- *)

(* Everything a verdict says, as one comparable line. *)
let verdict_summary (v : Stream_replay.verdict) =
  Printf.sprintf "%s; %d events, %d accesses, %d queries, %d bytes; races [%s]"
    (Stream_replay.status_to_string v.Stream_replay.status)
    v.Stream_replay.events_applied v.Stream_replay.accesses v.Stream_replay.queries
    v.Stream_replay.bytes_analyzed
    (String.concat "; " (norm 0 v.Stream_replay.reports))
  ^ Printf.sprintf "; racy [%s]"
      (String.concat " " (List.map string_of_int v.Stream_replay.racy_locations))

(* Every registered detector, on serial synthetic logs and on a 2-worker
   one: a sharded replay's verdict is the inline replay's, at any shard
   count. A serial-only detector fails the 2-worker log alike. *)
let test_shard_invariance () =
  let synth exec seed =
    let t = Synthetic.generate ~seed ~ops:150 ~depth:4 ~locs:6 () in
    let i = Synthetic.instantiate t in
    snd (record (fun cb root -> exec cb root i.Synthetic.program))
  in
  let logs =
    List.init 5 (fun k ->
        (Printf.sprintf "seed %d" (k + 1), synth (fun cb root p -> serial p cb root) (k + 1)))
    @ [
        ( "2-worker seed 6",
          synth (fun cb root p -> ignore (Par_exec.run ~workers:2 cb ~root p)) 6 );
      ]
  in
  List.iter
    (fun (e : Sfr_detect.Registry.entry) ->
      List.iter
        (fun (name, log) ->
          let one = verdict_summary (replay (Stream_replay.run_file (e.make ())) log) in
          List.iter
            (fun n ->
              check Alcotest.string
                (Printf.sprintf "%s, %s: %d shards == inline" e.name name n)
                one
                (verdict_summary (replay (Stream_replay.run_sharded ~shards:n e.make) log)))
            [ 1; 2; 8 ])
        logs)
    (Sfr_detect.Registry.all ())

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

(* Out-of-range shard counts are refused before any detector is made
   or domain spawned. The file does not exist, so an accepted count
   fails only on opening it. *)
let test_shard_count_bounds () =
  let outcome ?(make = fun () -> Alcotest.fail "a detector was made") n =
    match Stream_replay.run_sharded ~shards:n make "/nonexistent/x.sflog" with
    | _ -> "ran"
    | exception Invalid_argument _ -> "rejected"
    | exception Sys_error _ -> "opened"
  in
  check Alcotest.string "0 shards" "rejected" (outcome 0);
  check Alcotest.string "max_workers + 1 shards" "rejected"
    (outcome (Par_exec.max_workers + 1));
  check Alcotest.string "1 shard" "opened" (outcome ~make:(fun () -> Sf_order.make ()) 1)

(* -- malformed logs ----------------------------------------------------- *)

(* A malformed log's status, which a 2-shard replay must repeat. *)
let status_of name bytes =
  let v = replay (inline ()) bytes in
  check Alcotest.string (name ^ ": sharded status")
    (Stream_replay.status_to_string v.Stream_replay.status)
    (Stream_replay.status_to_string (replay (sharded 2) bytes).Stream_replay.status);
  v.Stream_replay.status

let expect_error name bytes pred =
  match status_of name bytes with
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
      | _ -> false);
  (* CRC-clean but logically broken: a state nothing defines, and a
     state defined twice *)
  let inconsistent name evs ~states =
    let p = Buffer.create 8 in
    ignore (List.fold_left (fun last ev -> Log_format.write_event p ~last_loc:last ev) 0 evs);
    let img = craft_log ~payload:(Buffer.to_bytes p) ~events:(List.length evs) ~states ~workers:1 in
    match status_of name img with
    | Stream_replay.Inconsistent _ -> ()
    | st -> Alcotest.failf "%s: %s" name (Stream_replay.status_to_string st)
  in
  inconsistent "stuck" [ Log_format.Write { cur = 2; loc = 7 } ] ~states:3;
  inconsistent "redefined" [ Log_format.Spawn { cur = 0; child = 0; cont = 1 } ] ~states:2

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
      (fun run -> check slist name [] (replayed_races 0 run image))
      [ inline (); sharded 2 ]
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
        (Stream_replay.run_file (Sfr_detect.Multibags.make ()))
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

(* Worker 1 applies a sync, then blocks on a get whose put sits in a
   later chunk of worker 0, while a hundred more syncs queue behind the
   get. Fed in small slices, its stream columns fill with the applied
   sync's lists still at their front, so the waiting rows and lists
   move before the columns grow; the syncs must still find their
   lists once the put arrives. *)
let test_blocked_stream_grows () =
  let payload evs =
    let p = Buffer.create 256 in
    ignore (List.fold_left (fun last ev -> Log_format.write_event p ~last_loc:last ev) 0 evs);
    Buffer.to_bytes p
  in
  let loc = 7 in
  let fork_join s =
    [
      Log_format.Spawn { cur = s; child = s + 1; cont = s + 2 };
      Returned { cont = s + 2; child_last = s + 1 };
      Sync { cur = s + 2; spawned_lasts = [ s + 1 ]; created_firsts = []; next = s + 3 };
    ]
  in
  let rounds = 100 in
  let w0 = [ Log_format.Create { cur = 0; child = 1; cont = 2 } ]
  and w1 =
    fork_join 2 @ [ Log_format.Get { cur = 5; put = 1; next = 6 } ]
    @ List.concat (List.init rounds (fun k -> fork_join (6 + (3 * k))))
  and w0' = [ Log_format.Write { cur = 1; loc }; Put { cur = 1 } ]
  and w1' = [ Log_format.Write { cur = 6 + (3 * rounds); loc } ] in
  let image =
    craft_chunks
      ~chunks:[ (0, payload w0); (1, payload w1); (0, payload w0'); (1, payload w1') ]
      ~events:(List.length (w0 @ w1 @ w0' @ w1'))
      ~states:(7 + (3 * rounds))
      ~workers:2
  in
  for slice = 1 to 32 do
    let v = replay_sliced image [| slice |] in
    check Alcotest.string
      (Printf.sprintf "%d-byte slices: status" slice)
      "complete"
      (Stream_replay.status_to_string v.Stream_replay.status);
    check (Alcotest.list Alcotest.int)
      (Printf.sprintf "%d-byte slices: no race" slice)
      [] v.Stream_replay.racy_locations
  done

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
  expect "inline" (Stream_replay.run_file det);
  check Alcotest.bool "inline history words bounded" true (det.Detector.history_words () < 50_000);
  let top = (Gc.quick_stat ()).Gc.top_heap_words in
  expect "sharded" (sharded 2);
  check Alcotest.bool "sharded replay heap bounded" true
    ((Gc.quick_stat ()).Gc.top_heap_words - top < 1_000_000)

(* -- decoder robustness ---------------------------------------------------- *)

(* The 15-byte log whose only event is [Spawn {cur = 0; child = id;
   cont = 1}], with no footer. *)
let huge_id_log id =
  let p = Buffer.create 16 in
  ignore
    (Log_format.write_event p ~last_loc:0 (Log_format.Spawn { cur = 0; child = id; cont = 1 }));
  let b = Buffer.create 32 in
  Buffer.add_string b Log_format.magic;
  Buffer.add_char b (Char.chr Log_format.version);
  Buffer.add_char b '\001';
  Log_format.write_varint b 0;
  Log_format.write_varint b (Buffer.length p);
  Buffer.add_buffer b p;
  Buffer.to_bytes b

(* Heap words a call grows the process by: the larger of the heap's and
   its high-water mark's growth, so an allocation freed before the call
   returns still counts. *)
let heap_growth f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  (r, max (s1.Gc.heap_words - s0.Gc.heap_words) (s1.Gc.top_heap_words - s0.Gc.top_heap_words))

(* What a replay may grow the heap by for an input of [bytes] bytes. *)
let heap_bound bytes = (64 * bytes) + (1 lsl 20)

let test_huge_state_id () =
  let image = huge_id_log (1 lsl 24) in
  check Alcotest.int "log size" 15 (Bytes.length image);
  let v, grown = heap_growth (fun () -> replay_sliced image [| 4096 |]) in
  (match v.Stream_replay.status with
  | Stream_replay.Torn (Log_format.Truncated _) -> ()
  | s -> Alcotest.failf "huge state id: %s" (Stream_replay.status_to_string s));
  check Alcotest.bool (Printf.sprintf "heap grew %d words" grown) true (grown < 1 lsl 16)

(* Real logs the mutations start from: serial and 2-worker synthetic
   recordings and the serial mm log. *)
let robustness_corpus =
  lazy
    (let synth exec seed =
       let t = Synthetic.generate ~seed ~ops:120 ~depth:4 ~locs:6 () in
       let i = Synthetic.instantiate t in
       snd (record (fun cb root -> exec cb root i.Synthetic.program))
     in
     let mm =
       let w = Option.get (Registry.find "mm") in
       let i = w.Workload.instantiate ~inject_race:false Workload.Tiny in
       snd (record (fun cb root -> serial i.Workload.program cb root))
     in
     [|
       synth (fun cb root p -> serial p cb root) 3;
       synth (fun cb root p -> ignore (Par_exec.run ~workers:2 cb ~root p)) 4;
       mm;
     |])

(* Positions are drawn independently of the image and reduced modulo
   its length when applied. *)
type mutation =
  | Flip of { pos : int; bit : int }
  | Overlong of { pos : int }  (** 11 continuation bytes inserted *)
  | Huge of { pos : int; bits : int }  (** a byte replaced by a huge varint *)
  | Huge_chunk of { bits : int; count : bool }
      (** a chunk defining state 2^bits (or opening a Sync list that
          long) inserted after the header *)
  | Truncate of { len : int }
  | Splice of { other : int; at : int; from : int }
      (** a prefix of the image, then a suffix of another corpus log *)

let huge bits = if bits >= 62 then max_int else (1 lsl bits) + (bits land 7)

let insert img at s =
  let at = at mod (Bytes.length img + 1) in
  Bytes.concat Bytes.empty
    [ Bytes.sub img 0 at; Bytes.of_string s; Bytes.sub img at (Bytes.length img - at) ]

let varint_string n =
  let b = Buffer.create 10 in
  Log_format.write_varint b n;
  Buffer.contents b

let mutate corpus img m =
  let len = Bytes.length img in
  match m with
  | Flip _ | Huge _ when len = 0 -> img
  | Flip { pos; bit } ->
      let b = Bytes.copy img and i = pos mod len in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      b
  | Overlong { pos } -> insert img pos (String.make 11 '\xFF')
  | Huge { pos; bits } ->
      let i = pos mod len in
      Bytes.concat Bytes.empty
        [
          Bytes.sub img 0 i;
          Bytes.of_string (varint_string (huge bits));
          Bytes.sub img (i + 1) (len - i - 1);
        ]
  | Huge_chunk { bits; count } ->
      let p = Buffer.create 16 in
      if count then begin
        (* Sync {cur = 0} with a list count of 2^bits and one entry *)
        Buffer.add_char p '\003';
        Log_format.write_varint p 0;
        Log_format.write_varint p (huge bits);
        Log_format.write_varint p 1
      end
      else
        ignore
          (Log_format.write_event p ~last_loc:0
             (Log_format.Spawn { cur = 0; child = huge bits; cont = 1 }));
      insert img (min 5 len)
        ("\001" ^ varint_string 0 ^ varint_string (Buffer.length p) ^ Buffer.contents p)
  | Truncate { len = n } -> Bytes.sub img 0 (n mod (len + 1))
  | Splice { other; at; from } ->
      let o = corpus.(other mod Array.length corpus) in
      let at = at mod (len + 1) and from = from mod (Bytes.length o + 1) in
      Bytes.cat (Bytes.sub img 0 at) (Bytes.sub o from (Bytes.length o - from))

let gen_mutation =
  let open QCheck2.Gen in
  let pos = int_bound 1_000_000 in
  oneof
    [
      map2 (fun pos bit -> Flip { pos; bit }) pos (int_bound 7);
      map (fun pos -> Overlong { pos }) pos;
      map2 (fun pos bits -> Huge { pos; bits }) pos (int_range 20 62);
      map2 (fun bits count -> Huge_chunk { bits; count }) (int_range 20 62) bool;
      map (fun len -> Truncate { len }) pos;
      map3 (fun other at from -> Splice { other; at; from }) small_nat pos pos;
    ]

(* Slice sizes from 1 byte to 8 KiB, small ones as likely as large. *)
let gen_slices =
  QCheck2.Gen.(
    array_size (int_range 1 16) (oneof [ int_range 1 16; int_range 1 8192 ]))

let show_mutation = function
  | Flip { pos; bit } -> Printf.sprintf "flip %d.%d" pos bit
  | Overlong { pos } -> Printf.sprintf "overlong @%d" pos
  | Huge { pos; bits } -> Printf.sprintf "huge 2^%d @%d" bits pos
  | Huge_chunk { bits; count } ->
      Printf.sprintf "huge %s 2^%d chunk" (if count then "count" else "id") bits
  | Truncate { len } -> Printf.sprintf "truncate %d" len
  | Splice { other; at; from } -> Printf.sprintf "splice %d @%d from %d" other at from

let prop_decoder_bounded =
  QCheck2.Test.make ~name:"mutated logs: typed status, heap bounded by input"
    ~count:300
    ~print:(fun (base, ms, slices) ->
      Printf.sprintf "log %d, [%s], slices [%s]" base
        (String.concat "; " (List.map show_mutation ms))
        (String.concat " " (Array.to_list (Array.map string_of_int slices))))
    QCheck2.Gen.(triple small_nat (list_size (int_range 1 3) gen_mutation) gen_slices)
    (fun (base, ms, slices) ->
      let corpus = Lazy.force robustness_corpus in
      let img =
        List.fold_left (mutate corpus) corpus.(base mod Array.length corpus) ms
      in
      let v, grown = heap_growth (fun () -> replay_sliced img slices) in
      (* every status is typed; reaching here means nothing raised *)
      ignore (Stream_replay.status_to_string v.Stream_replay.status);
      grown <= heap_bound (Bytes.length img)
      || QCheck2.Test.fail_reportf "%d-byte input grew the heap by %d words"
           (Bytes.length img) grown)

(* -- decoded columns ------------------------------------------------------ *)

(* Random [(worker, event)] sequences, written with [write_event] into
   random chunkings and fed to [Stream_reader] in random slices, must
   come back row for row. This is the decoder's reference: the writer
   is the one codec that builds [Log_format.event] values. *)
let gen_stream =
  let open QCheck2.Gen in
  (* state IDs up to the largest a footer can bound; locations whose
     deltas stay inside the zigzag range *)
  let id = oneof [ int_bound 64; int_bound (max_int - 1) ] in
  let loc = oneof [ int_bound 256; int_bound ((1 lsl 61) - 1) ] in
  let ids = oneof [ return []; list_size (int_bound 4) id; list_size (int_range 100 300) id ] in
  let event =
    oneof
      [
        map3 (fun cur child cont -> Log_format.Spawn { cur; child; cont }) id id id;
        map3 (fun cur child cont -> Log_format.Create { cur; child; cont }) id id id;
        map4
          (fun cur spawned_lasts created_firsts next ->
            Log_format.Sync { cur; spawned_lasts; created_firsts; next })
          id ids ids id;
        map (fun cur -> Log_format.Put { cur }) id;
        map3 (fun cur put next -> Log_format.Get { cur; put; next }) id id id;
        map2 (fun cont child_last -> Log_format.Returned { cont; child_last }) id id;
        map2 (fun cur loc -> Log_format.Read { cur; loc }) id loc;
        map2 (fun cur loc -> Log_format.Write { cur; loc }) id loc;
        map2 (fun cur amount -> Log_format.Work { cur; amount }) id nat;
      ]
  in
  let worker = oneof [ int_bound 3; int_bound 1023 ] in
  triple
    (list_size (int_range 1 200) (pair worker event))
    (int_range 1 64) (* events per chunk, at most *)
    gen_slices

(* The image of [evs] cut into chunks of at most [per_chunk] events of
   one worker each, every worker's location deltas threaded across its
   chunks. *)
let image_of_stream evs ~per_chunk =
  let last_locs = Hashtbl.create 8 in
  let chunk w evs =
    let p = Buffer.create 64 in
    let last = Option.value ~default:0 (Hashtbl.find_opt last_locs w) in
    let last =
      List.fold_left (fun last ev -> Log_format.write_event p ~last_loc:last ev) last evs
    in
    Hashtbl.replace last_locs w last;
    (w, Buffer.to_bytes p)
  in
  let rec cut acc cur = function
    | [] -> List.rev (match cur with None -> acc | Some (w, evs) -> chunk w (List.rev evs) :: acc)
    | (w, ev) :: rest -> (
        match cur with
        | Some (w', evs) when w' = w && List.length evs < per_chunk ->
            cut acc (Some (w, ev :: evs)) rest
        | Some (w', evs) -> cut (chunk w' (List.rev evs) :: acc) (Some (w, [ ev ])) rest
        | None -> cut acc (Some (w, [ ev ])) rest)
  in
  let ids = function
    | Log_format.Spawn { cur; child; cont } | Create { cur; child; cont } -> [ cur; child; cont ]
    | Sync { cur; spawned_lasts; created_firsts; next } ->
        (cur :: next :: spawned_lasts) @ created_firsts
    | Put { cur } | Read { cur; _ } | Write { cur; _ } | Work { cur; _ } -> [ cur ]
    | Get { cur; put; next } -> [ cur; put; next ]
    | Returned { cont; child_last } -> [ cont; child_last ]
  in
  let max_of f = List.fold_left (fun m x -> max m (f x)) 0 evs in
  craft_chunks ~chunks:(cut [] None evs) ~events:(List.length evs)
    ~states:(max_of (fun (_, ev) -> List.fold_left max 0 (ids ev)) + 1)
    ~workers:(max_of fst + 1)

let prop_columns_round_trip =
  QCheck2.Test.make ~name:"decoded rows materialize to the written events" ~count:200
    gen_stream (fun (evs, per_chunk, slices) ->
      let image = image_of_stream evs ~per_chunk in
      let r = Stream_reader.create () in
      let rows = ref [] in
      let take = function
        | Ok (b : Stream_reader.batch) ->
            for i = 0 to b.Stream_reader.rows - 1 do
              rows := (b.Stream_reader.worker.(i), Stream_reader.event b i) :: !rows
            done
        | Error e -> QCheck2.Test.fail_reportf "drain: %s" (Log_format.error_to_string e)
      in
      let len = Bytes.length image in
      let pos = ref 0 and k = ref 0 in
      while !pos < len do
        let n = min slices.(!k mod Array.length slices) (len - !pos) in
        Stream_reader.feed r image ~pos:!pos ~len:n;
        take (Stream_reader.drain r);
        pos := !pos + n;
        incr k
      done;
      match Stream_reader.finish r with
      | Ok s -> s.Stream_reader.s_events = List.length evs && List.rev !rows = evs
      | Error e -> QCheck2.Test.fail_reportf "finish: %s" (Log_format.error_to_string e))

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
        let v = inline () path in
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

(* -- CRC-32 ------------------------------------------------------------ *)

(* Bit-at-a-time reference CRC-32 (reflected, polynomial 0xEDB88320). *)
let crc32_bitwise crc bytes ~pos ~len =
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code (Bytes.get bytes i);
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  !c lxor 0xFFFFFFFF

(* Random bytes cut into a chain of slices at random, often unaligned,
   offsets; short slices (0-15 bytes) exercise the bytewise tail alone. *)
let prop_crc32_matches_bitwise =
  QCheck2.Test.make ~name:"crc32: chained slices equal the bitwise reference"
    ~count:500
    QCheck2.Gen.(
      pair (string_size (int_range 0 300))
        (list_size (int_range 1 6) (pair (int_bound 40) (int_bound 300))))
    (fun (s, slices) ->
      let b = Bytes.of_string s in
      let n = Bytes.length b in
      let fast, slow =
        List.fold_left
          (fun (fast, slow) (pos, len) ->
            let pos = pos mod (n + 1) in
            let len = min len (n - pos) in
            ( Log_format.crc32_update fast b ~pos ~len,
              crc32_bitwise slow b ~pos ~len ))
          (Log_format.crc32_init, Log_format.crc32_init)
          slices
      in
      fast = slow)

let test_crc32_check_value () =
  let b = Bytes.of_string "123456789" in
  check Alcotest.int "CRC-32 check value" 0xCBF43926
    (Log_format.crc32_update Log_format.crc32_init b ~pos:0 ~len:9);
  List.iter
    (fun (pos, len) ->
      match Log_format.crc32_update 0 b ~pos ~len with
      | _ -> Alcotest.failf "slice (%d, %d) accepted" pos len
      | exception Invalid_argument _ -> ())
    [ (-1, 2); (0, 10); (8, 2); (3, -1) ]

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
          Alcotest.test_case "blocked stream grows" `Quick test_blocked_stream_grows;
          Alcotest.test_case "far-apart locations" `Quick test_far_locations;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_log_rebuilds_trace; prop_rebuilt_reachability; prop_parallel_log_slices ] );
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
          Alcotest.test_case "huge state id" `Quick test_huge_state_id;
          Alcotest.test_case "crc32 check value and bad slices" `Quick
            test_crc32_check_value;
          QCheck_alcotest.to_alcotest prop_crc32_matches_bitwise;
          QCheck_alcotest.to_alcotest prop_decoder_bounded;
          QCheck_alcotest.to_alcotest prop_columns_round_trip;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "close is idempotent" `Quick test_close_idempotent;
          Alcotest.test_case "metrics accounting" `Quick test_metrics_accounting;
          Alcotest.test_case "trace accesses sorted" `Quick
            test_trace_accesses_sorted;
        ] );
    ]
