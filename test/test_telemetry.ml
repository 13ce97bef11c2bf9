(* Tests for Sfr_obs.Telemetry: sampler lifecycle idempotence, ring
   boundedness under a slow consumer, JSONL round-tripping through
   Json_min, Prometheus exposition grammar, percentile estimation, the
   slot-collision counter, and the 4-domain probe-consistency check
   (per-worker scheduler totals reconcile against the Metrics deltas). *)

module Metrics = Sfr_obs.Metrics
module Telemetry = Sfr_obs.Telemetry
module Json_min = Sfr_obs.Json_min
module Par_exec = Sfr_runtime.Par_exec
module Events = Sfr_runtime.Events
module Synthetic = Sfr_workloads.Synthetic

let check = Alcotest.check

(* Wait until the sampler has taken at least [n] samples (bounded; the
   1 ms period makes this tens of milliseconds in practice). *)
let wait_for_samples n =
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Telemetry.sample_count () < n && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.002
  done;
  if Telemetry.sample_count () < n then
    Alcotest.failf "sampler produced %d/%d samples within 10 s"
      (Telemetry.sample_count ()) n

(* -- lifecycle --------------------------------------------------------- *)

let test_start_stop_idempotent () =
  Telemetry.stop ();
  (* stop with no sampler is a no-op *)
  check Alcotest.bool "not running initially" false (Telemetry.running ());
  check Alcotest.bool "not armed initially" false (Telemetry.armed ());
  Telemetry.start ~sample_ms:1 ();
  check Alcotest.bool "running after start" true (Telemetry.running ());
  check Alcotest.bool "armed after start" true (Telemetry.armed ());
  let c1 = Telemetry.sample_count () in
  Telemetry.start ~sample_ms:1 ();
  (* second start: same sampler *)
  check Alcotest.bool "still running" true (Telemetry.running ());
  check Alcotest.bool "second start did not reset the ring" true
    (Telemetry.sample_count () >= c1);
  Telemetry.stop ();
  check Alcotest.bool "stopped" false (Telemetry.running ());
  check Alcotest.bool "disarmed" false (Telemetry.armed ());
  let c2 = Telemetry.sample_count () in
  check Alcotest.bool "baseline + final samples exist" true (c2 >= 2);
  Telemetry.stop ();
  check Alcotest.int "second stop changes nothing" c2
    (Telemetry.sample_count ());
  (* restartable: a fresh start opens a fresh ring *)
  Telemetry.start ~sample_ms:1 ();
  check Alcotest.bool "restarted" true (Telemetry.running ());
  Telemetry.stop ()

let test_bad_sample_ms () =
  Alcotest.check_raises "sample_ms 0 rejected"
    (Invalid_argument "Telemetry.start: sample_ms must be >= 1") (fun () ->
      Telemetry.start ~sample_ms:0 ())

(* -- ring bound under a slow consumer ----------------------------------- *)

let test_ring_bounded () =
  Telemetry.stop ();
  Telemetry.start ~sample_ms:1 ~ring_capacity:8 ();
  (* nobody consumes; the sampler must overwrite, not grow *)
  wait_for_samples 40;
  Telemetry.stop ();
  let total = Telemetry.sample_count () in
  let retained = Telemetry.samples () in
  check Alcotest.bool "many samples taken" true (total >= 40);
  check Alcotest.bool "ring retained at most its capacity" true
    (List.length retained <= 8);
  (* the retained window is the newest suffix, in order *)
  let seqs = List.map (fun s -> s.Telemetry.seq) retained in
  let rec consecutive = function
    | a :: (b :: _ as rest) -> a + 1 = b && consecutive rest
    | _ -> true
  in
  check Alcotest.bool "seqs consecutive" true (consecutive seqs);
  check Alcotest.(option int) "newest sample is the last taken"
    (Some (total - 1))
    (match List.rev seqs with [] -> None | s :: _ -> Some s);
  let ts = List.map (fun s -> s.Telemetry.t_ms) retained in
  check Alcotest.bool "timestamps monotone" true (List.sort compare ts = ts)

(* -- marks -------------------------------------------------------------- *)

let test_marks_delivered () =
  Telemetry.stop ();
  Telemetry.mark "dropped while disarmed";
  Telemetry.start ~sample_ms:2 ();
  Telemetry.mark "test.mark.alpha";
  Telemetry.mark "test.mark.beta";
  wait_for_samples 3;
  Telemetry.stop ();
  let all_marks =
    List.concat_map (fun s -> s.Telemetry.marks) (Telemetry.samples ())
  in
  check Alcotest.bool "disarmed mark dropped" true
    (not (List.mem "dropped while disarmed" all_marks));
  check Alcotest.bool "armed marks delivered once, in order" true
    (List.filter (fun m -> String.length m >= 10 && String.sub m 0 10 = "test.mark.") all_marks
    = [ "test.mark.alpha"; "test.mark.beta" ])

(* -- JSONL -------------------------------------------------------------- *)

let test_sample_json_round_trip () =
  let s =
    {
      Telemetry.seq = 3;
      t_ms = 12.625;
      marks = [ "plain"; "with \"quotes\"\nand\tcontrols" ];
      counters = [ ("runtime.tasks", 17); ("a\\b", 1) ];
      gauges = [ ("gc.heap_words", 123456) ];
    }
  in
  match Json_min.parse (Telemetry.sample_to_json s) with
  | Error e -> Alcotest.failf "sample line did not parse: %s" e
  | Ok doc ->
      let num k =
        match Json_min.member k doc with
        | Some (Json_min.Num v) -> v
        | _ -> Alcotest.failf "missing numeric %s" k
      in
      check Alcotest.int "seq" 3 (int_of_float (num "seq"));
      check (Alcotest.float 1e-9) "t_ms" 12.625 (num "t_ms");
      (match Json_min.member "marks" doc with
      | Some (Json_min.Arr [ Json_min.Str a; Json_min.Str b ]) ->
          check Alcotest.string "mark 1" "plain" a;
          check Alcotest.string "escaped mark survives"
            "with \"quotes\"\nand\tcontrols" b
      | _ -> Alcotest.fail "marks array malformed");
      (match Json_min.member "counters" doc with
      | Some (Json_min.Obj kvs) ->
          check
            Alcotest.(list (pair string (float 1e-9)))
            "counters"
            [ ("runtime.tasks", 17.0); ("a\\b", 1.0) ]
            (List.map (fun (k, v) ->
                 match v with
                 | Json_min.Num n -> (k, n)
                 | _ -> Alcotest.fail "non-numeric counter")
               kvs)
      | _ -> Alcotest.fail "counters object malformed")

let test_jsonl_file_round_trip () =
  Telemetry.stop ();
  Metrics.enable ();
  let path = Filename.temp_file "sfr_telemetry" ".jsonl" in
  Telemetry.start ~sample_ms:2 ~out:path ();
  let c = Metrics.counter "test.telemetry.jsonl" in
  Metrics.add c 5;
  wait_for_samples 3;
  Telemetry.stop ();
  let text =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.remove path;
  (match Telemetry.lint_jsonl text with
  | Error e -> Alcotest.failf "lint rejected the stream: %s" e
  | Ok n ->
      check Alcotest.int "every sample written" (Telemetry.sample_count ()) n);
  (* each line individually parses through Json_min *)
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' text)
  in
  List.iter
    (fun l ->
      match Json_min.parse l with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "line %S: %s" l e)
    lines;
  (* the counter delta we caused shows up in exactly one line's counters *)
  let hits =
    List.length
      (List.filter
         (fun l ->
           match Json_min.parse l with
           | Ok doc -> (
               match Json_min.member "counters" doc with
               | Some o -> Json_min.member "test.telemetry.jsonl" o <> None
               | None -> false)
           | Error _ -> false)
         lines)
  in
  check Alcotest.int "delta appears once (then elided as zero)" 1 hits

let test_lint_rejects_garbage () =
  (match Telemetry.lint_jsonl "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty file accepted");
  (match Telemetry.lint_jsonl "{\"telemetry_schema\":99}\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong schema version accepted");
  match
    Telemetry.lint_jsonl
      "{\"telemetry_schema\":1,\"sample_ms\":5}\n{\"seq\":0}\n"
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "sample missing required fields accepted"

(* -- Prometheus --------------------------------------------------------- *)

let test_prometheus_grammar () =
  Metrics.enable ();
  let c = Metrics.counter "test.telemetry.prom_counter" in
  Metrics.add c 3;
  let g = Metrics.counter ~kind:`Max "test.telemetry.prom_gauge" in
  Metrics.add g 9;
  let h = Metrics.histogram "test.telemetry.prom_hist" in
  List.iter (Metrics.observe h) [ 1; 3; 10; 100; 5000 ];
  let text =
    Telemetry.render_prometheus ~gauges:[ ("sched.deque_depth", 4) ] ()
  in
  (match Telemetry.check_prometheus text with
  | Error e -> Alcotest.failf "own exposition rejected: %s" e
  | Ok n -> check Alcotest.bool "has sample lines" true (n > 0));
  (* the families we populated render with mangled names *)
  let has needle =
    let n = String.length needle and m = String.length text in
    let rec at i = i + n <= m && (String.sub text i n = needle || at (i + 1)) in
    at 0
  in
  check Alcotest.bool "counter family" true
    (has "# TYPE sfr_test_telemetry_prom_counter counter");
  check Alcotest.bool "gauge family" true
    (has "# TYPE sfr_test_telemetry_prom_gauge gauge");
  check Alcotest.bool "histogram family" true
    (has "# TYPE sfr_test_telemetry_prom_hist histogram");
  check Alcotest.bool "+Inf bucket closes the histogram" true
    (has "sfr_test_telemetry_prom_hist_bucket{le=\"+Inf\"} 5");
  check Alcotest.bool "histogram count" true
    (has "sfr_test_telemetry_prom_hist_count 5");
  check Alcotest.bool "extra gauge rendered" true (has "sfr_sched_deque_depth 4")

let test_prometheus_check_rejects () =
  let bad =
    [
      ("sample without TYPE", "orphan_metric 1\n");
      ("bad name", "# TYPE 9bad counter\n9bad 1\n");
      ("bad value", "# TYPE m counter\nm notanumber\n");
      ("unterminated label", "# TYPE m counter\nm{le=\"4 1\n");
      ("missing space", "# TYPE m counter\nm1\n");
      ("unknown type", "# TYPE m matrix\nm 1\n");
      ("malformed comment", "# NOPE m counter\n");
    ]
  in
  List.iter
    (fun (what, text) ->
      match Telemetry.check_prometheus text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s accepted" what)
    bad;
  (* cumulative-bucket exposition with only the histogram suffixes and no
     bare family sample is valid *)
  match
    Telemetry.check_prometheus
      "# HELP h help text\n\
       # TYPE h histogram\n\
       h_bucket{le=\"1\"} 1\n\
       h_bucket{le=\"+Inf\"} 2\n\
       h_sum 3\n\
       h_count 2\n"
  with
  | Ok 4 -> ()
  | Ok n -> Alcotest.failf "expected 4 sample lines, got %d" n
  | Error e -> Alcotest.failf "valid histogram rejected: %s" e

(* -- percentiles -------------------------------------------------------- *)

let test_percentiles () =
  check Alcotest.int "empty buckets" 0 (Metrics.percentile_of_buckets [] 0.5);
  let bs = [ (1, 1); (2, 1); (4, 2); (8, 2); (16, 1) ] in
  (* ranks: cum 1,2,4,6,7 of total 7 *)
  check Alcotest.int "p50 -> le 4" 4 (Metrics.percentile_of_buckets bs 0.5);
  check Alcotest.int "p90 -> le 16" 16 (Metrics.percentile_of_buckets bs 0.9);
  check Alcotest.int "p0 -> first bucket" 1
    (Metrics.percentile_of_buckets bs 0.0);
  check Alcotest.int "p100 -> last bucket" 16
    (Metrics.percentile_of_buckets bs 1.0);
  Metrics.enable ();
  let h = Metrics.histogram "test.telemetry.pcts" in
  for _ = 1 to 90 do
    Metrics.observe h 10
  done;
  for _ = 1 to 10 do
    Metrics.observe h 1000
  done;
  let summaries = Metrics.histogram_summaries () in
  match
    List.find_opt
      (fun s -> s.Metrics.h_name = "test.telemetry.pcts")
      summaries
  with
  | None -> Alcotest.fail "summary missing"
  | Some s ->
      check Alcotest.int "count" 100 s.Metrics.h_count;
      check Alcotest.int "sum" (90 * 10 + 10 * 1000) s.Metrics.h_sum;
      check Alcotest.int "p50 in the 10s bucket" 16 s.Metrics.p50;
      check Alcotest.int "p99 in the 1000s bucket" 1024 s.Metrics.p99

(* -- slot collisions ---------------------------------------------------- *)

let test_slot_collisions () =
  let before = Metrics.slot_collisions () in
  (* hold the main domain's slot live, then walk 128 consecutive domain
     IDs through enter/exit: exactly one of them shares the slot mod 128
     and must trip the collision counter *)
  Metrics.domain_enter ();
  for _ = 1 to 128 do
    let d =
      Domain.spawn (fun () ->
          Metrics.domain_enter ();
          Metrics.domain_exit ())
    in
    Domain.join d
  done;
  Metrics.domain_exit ();
  check Alcotest.bool "a mod-128 collision was detected" true
    (Metrics.slot_collisions () > before);
  check Alcotest.bool "collision counter is exported" true
    (List.mem_assoc "obs.metrics.slot_collisions" (Metrics.snapshot ()))

(* -- probe consistency on 4 domains ------------------------------------- *)

let test_probe_consistency () =
  Telemetry.stop ();
  Metrics.enable ();
  let snap name =
    Option.value ~default:0 (List.assoc_opt name (Metrics.snapshot ()))
  in
  (* a long period keeps the sampler quiet; we only need [armed] high so
     the workers maintain their per-worker counters *)
  Telemetry.start ~sample_ms:1000 ();
  let tasks0 = snap "runtime.tasks" and steals0 = snap "runtime.steals" in
  let t = Synthetic.generate ~seed:11 ~ops:600 ~depth:6 ~locs:24 () in
  let inst = Synthetic.instantiate t in
  let (), _ =
    Par_exec.run ~workers:4 Events.null ~root:Events.Unit_state
      inst.Synthetic.program
  in
  let tasks1 = snap "runtime.tasks" and steals1 = snap "runtime.steals" in
  Telemetry.stop ();
  match Par_exec.last_probe () with
  | None -> Alcotest.fail "no end-of-run probe"
  | Some p ->
      let sum a = Array.fold_left ( + ) 0 a in
      check Alcotest.int "4 workers" 4 p.Par_exec.workers;
      check Alcotest.int "per-worker tasks sum to the runtime total"
        (tasks1 - tasks0)
        (sum p.Par_exec.tasks);
      check Alcotest.int "per-worker steals sum to the runtime total"
        (steals1 - steals0)
        (sum p.Par_exec.steals);
      check Alcotest.int "deques drained at quiescence" 0
        (sum p.Par_exec.deque_depths);
      check Alcotest.bool "probe_metrics flattens aggregates + per-worker"
        true
        (let pm = Par_exec.probe_metrics () in
         List.assoc_opt "sched.workers" pm = Some 4
         && List.assoc_opt "sched.tasks" pm = Some (sum p.Par_exec.tasks)
         && List.mem_assoc "sched.w3.tasks" pm)

let () =
  Alcotest.run "telemetry"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "start/stop idempotent" `Quick
            test_start_stop_idempotent;
          Alcotest.test_case "bad sample_ms" `Quick test_bad_sample_ms;
        ] );
      ( "ring",
        [ Alcotest.test_case "bounded under slow consumer" `Quick
            test_ring_bounded ] );
      ("marks", [ Alcotest.test_case "delivered once" `Quick test_marks_delivered ]);
      ( "jsonl",
        [
          Alcotest.test_case "sample round trip" `Quick
            test_sample_json_round_trip;
          Alcotest.test_case "file round trip" `Quick
            test_jsonl_file_round_trip;
          Alcotest.test_case "lint rejects garbage" `Quick
            test_lint_rejects_garbage;
        ] );
      ( "prometheus",
        [
          Alcotest.test_case "own exposition passes grammar" `Quick
            test_prometheus_grammar;
          Alcotest.test_case "grammar rejects malformed" `Quick
            test_prometheus_check_rejects;
        ] );
      ( "percentiles",
        [ Alcotest.test_case "bucket quantiles" `Quick test_percentiles ] );
      ( "collisions",
        [ Alcotest.test_case "mod-128 slot collision counted" `Quick
            test_slot_collisions ] );
      ( "probe",
        [ Alcotest.test_case "4-domain consistency" `Quick
            test_probe_consistency ] );
    ]
