(* Tests for the perf-telemetry layer: Prof latency histograms wired into
   the reachability query, GC attribution deltas, the flight recorder's
   crash dump. *)

module Metrics = Sfr_obs.Metrics
module Prof = Sfr_obs.Prof
module Flight = Sfr_obs.Flight
module Json_min = Sfr_obs.Json_min
module Detector = Sfr_detect.Detector
module Sf_order = Sfr_detect.Sf_order
module Events = Sfr_runtime.Events
module Program = Sfr_runtime.Program
module Serial_exec = Sfr_runtime.Serial_exec
module Par_exec = Sfr_runtime.Par_exec
module Synthetic = Sfr_workloads.Synthetic

let check = Alcotest.check

(* -- Prof histograms --------------------------------------------------- *)

let run_sf_order () =
  let t = Synthetic.generate ~seed:11 ~ops:400 ~depth:6 ~locs:24 () in
  let inst = Synthetic.instantiate t in
  let det = Sf_order.make () in
  let (), _ =
    Serial_exec.run det.Detector.callbacks ~root:det.Detector.root
      inst.Synthetic.program
  in
  det

let test_query_histograms_partition_queries () =
  Metrics.reset_all ();
  Metrics.enable ();
  Prof.enable ();
  let det = run_sf_order () in
  Prof.disable ();
  let m = det.Detector.metrics () in
  let get name = Option.value ~default:0 (List.assoc_opt name m) in
  let total = det.Detector.queries () in
  check Alcotest.bool "ran some queries" true (total > 0);
  (* every Algorithm-1 query records into exactly one per-case timer, so
     the histogram populations partition the query count like the plain
     case counters do *)
  check Alcotest.int "per-case latency observations partition the queries"
    total
    (get "prof.reach.query.same_future.ns.count"
    + get "prof.reach.query.cp.ns.count"
    + get "prof.reach.query.gp.ns.count");
  check Alcotest.bool "history writes were timed" true
    (get "prof.history.write.ns.count" > 0)

let test_disabled_prof_records_nothing () =
  Metrics.reset_all ();
  Metrics.enable ();
  Prof.disable ();
  let det = run_sf_order () in
  let m = det.Detector.metrics () in
  let prof_obs =
    List.fold_left
      (fun acc (name, v) ->
        if
          String.length name > 5
          && String.sub name 0 5 = "prof."
          && Filename.check_suffix name ".count"
        then acc + v
        else acc)
      0 m
  in
  check Alcotest.int "no latency observations while disabled" 0 prof_obs;
  check Alcotest.bool "queries still ran" true (det.Detector.queries () > 0)

let test_start_is_sentinel_when_disabled () =
  Prof.disable ();
  check Alcotest.int "disabled start returns 0" 0 (Prof.start ());
  Prof.enable ();
  check Alcotest.bool "enabled start returns a real timestamp" true
    (Prof.start () > 0);
  Prof.disable ()

(* -- GC attribution ---------------------------------------------------- *)

let test_gc_delta_plausibility () =
  let base = Prof.gc_snapshot () in
  (* force minor allocation the optimizer cannot remove *)
  let acc = ref [] in
  for i = 1 to 10_000 do
    acc := (i, string_of_int i) :: !acc
  done;
  let d = Prof.gc_delta base in
  check Alcotest.bool "kept the allocations live" true (List.length !acc > 0);
  List.iter
    (fun (name, v) ->
      check Alcotest.bool (name ^ " is non-negative") true (v >= 0))
    d;
  let get name = Option.value ~default:0 (List.assoc_opt name d) in
  check Alcotest.bool "allocation shows up in gc.minor_words" true
    (get "gc.minor_words" > 0)

let test_detector_metrics_include_gc () =
  Metrics.reset_all ();
  Metrics.enable ();
  let det = run_sf_order () in
  let m = det.Detector.metrics () in
  check Alcotest.bool "detector run allocated" true
    (Option.value ~default:0 (List.assoc_opt "gc.minor_words" m) > 0)

(* -- flight recorder --------------------------------------------------- *)

let test_flight_ring_bounded_and_ordered () =
  Flight.clear ();
  Flight.arm ();
  for i = 1 to (3 * Flight.capacity) + 7 do
    Flight.note ~arg:i "test.flood"
  done;
  let es = Flight.entries () in
  check Alcotest.bool "ring retains at most its capacity" true
    (List.length es <= Flight.capacity);
  check Alcotest.bool "ring is full after a flood" true
    (List.length es = Flight.capacity);
  let rec sorted = function
    | (a : Flight.entry) :: (b :: _ as rest) ->
        a.Flight.ts_ns <= b.Flight.ts_ns && sorted rest
    | [ _ ] | [] -> true
  in
  check Alcotest.bool "entries are oldest-first" true (sorted es);
  (* the retained window is the most recent writes *)
  (match List.rev es with
  | last :: _ ->
      check Alcotest.int "newest surviving arg" ((3 * Flight.capacity) + 7)
        last.Flight.arg
  | [] -> Alcotest.fail "no entries");
  Flight.clear ()

let test_flight_disarmed_records_nothing () =
  Flight.clear ();
  Flight.disarm ();
  Flight.note "test.invisible";
  check Alcotest.int "nothing recorded while disarmed" 0
    (List.length (Flight.entries ()));
  Flight.arm ()

let test_flight_crash_dump_on_raising_parallel_run () =
  let path = Filename.temp_file "sfr_flight" ".json" in
  Sys.remove path;
  Flight.clear ();
  Flight.arm ();
  Flight.reset_crash_guard ();
  Flight.set_crash_path (Some path);
  let boom = Failure "injected task failure" in
  let program () =
    let h =
      Program.create (fun () ->
          Program.work 1;
          raise boom)
    in
    Program.get h
  in
  (match
     Par_exec.run ~workers:2 Events.null ~root:Events.Unit_state program
   with
  | _ -> Alcotest.fail "expected the task exception to surface at the join"
  | exception Failure _ -> ());
  Flight.set_crash_path None;
  Flight.reset_crash_guard ();
  check Alcotest.bool "crash dump file written" true (Sys.file_exists path);
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.remove path;
  match Json_min.parse s with
  | Error e -> Alcotest.failf "crash dump is not valid JSON: %s" e
  | Ok doc -> (
      match Json_min.member "traceEvents" doc with
      | Some (Json_min.Arr events) ->
          check Alcotest.bool "dump holds the pre-crash window" true
            (List.length events > 0)
      | _ -> Alcotest.fail "crash dump has no traceEvents array")

let test_flight_crash_dump_once () =
  let path = Filename.temp_file "sfr_flight_once" ".json" in
  Flight.clear ();
  Flight.reset_crash_guard ();
  Flight.set_crash_path (Some path);
  Flight.note "test.first";
  Flight.crash_dump ~reason:"test first";
  let size1 = (Unix.stat path).Unix.st_size in
  Flight.note "test.second";
  Flight.crash_dump ~reason:"test second (must be ignored)";
  let size2 = (Unix.stat path).Unix.st_size in
  Flight.set_crash_path None;
  Flight.reset_crash_guard ();
  Sys.remove path;
  check Alcotest.int "second crash_dump did not rewrite the file" size1 size2

let () =
  Alcotest.run "prof"
    [
      ( "prof",
        [
          Alcotest.test_case "query histograms partition queries" `Quick
            test_query_histograms_partition_queries;
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_prof_records_nothing;
          Alcotest.test_case "disabled start is the 0 sentinel" `Quick
            test_start_is_sentinel_when_disabled;
        ] );
      ( "gc",
        [
          Alcotest.test_case "delta plausibility" `Quick
            test_gc_delta_plausibility;
          Alcotest.test_case "detector metrics include gc" `Quick
            test_detector_metrics_include_gc;
        ] );
      ( "flight",
        [
          Alcotest.test_case "ring bounded and ordered" `Quick
            test_flight_ring_bounded_and_ordered;
          Alcotest.test_case "disarmed records nothing" `Quick
            test_flight_disarmed_records_nothing;
          Alcotest.test_case "crash dump on raising parallel run" `Quick
            test_flight_crash_dump_on_raising_parallel_run;
          Alcotest.test_case "crash dump fires once" `Quick
            test_flight_crash_dump_once;
        ] );
    ]
