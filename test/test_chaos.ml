(* Chaos layer tests.

   The contract under test: (1) fixed-seed determinism — a serial run
   under an armed campaign produces the identical decision trace twice;
   (2) injected faults surface as Chaos.Injected at the join, they do not
   hang or kill workers; (3) the differential runner catches a
   deliberately broken detector and the shrinker reduces its failing
   program to a small deterministic reproducer; (4) a dumped reproducer
   is a complete event log carrying the oracle's verdict. *)

module Chaos = Sfr_chaos.Chaos
module Runner = Sfr_chaos_driver.Chaos_runner
module Shrink = Sfr_chaos_driver.Shrink
module Synthetic = Sfr_workloads.Synthetic
module Serial_exec = Sfr_runtime.Serial_exec
module Par_exec = Sfr_runtime.Par_exec
module Events = Sfr_runtime.Events
module Detector = Sfr_detect.Detector
module Sf_order = Sfr_detect.Sf_order
module Naive_detector = Sfr_detect.Naive_detector
module Trace = Sfr_runtime.Trace
module Stream_replay = Sfr_eventlog.Stream_replay

let check = Alcotest.check

(* -- fixed-seed determinism ------------------------------------------- *)

let serial_trace ~seed ~chaos_seed =
  let t = Synthetic.generate ~seed ~ops:120 ~depth:4 ~locs:6 () in
  let inst = Synthetic.instantiate t in
  let det = Sf_order.make () in
  Chaos.with_armed ~seed:chaos_seed (fun () ->
      ignore
        (Serial_exec.run det.Detector.callbacks ~root:det.Detector.root
           inst.Synthetic.program));
  Chaos.trace_strings ()

let test_fixed_seed_determinism () =
  let a = serial_trace ~seed:7 ~chaos_seed:99 in
  let b = serial_trace ~seed:7 ~chaos_seed:99 in
  check (Alcotest.list Alcotest.string) "same seed, same trace" a b;
  check Alcotest.bool "trace is non-trivial" true (List.length a > 0);
  let c = serial_trace ~seed:7 ~chaos_seed:100 in
  check Alcotest.bool "different seed, different trace" true (a <> c)

let test_disarmed_is_silent () =
  Chaos.disarm ();
  (* a point outside a campaign must not record or perturb *)
  Chaos.point Chaos.Task;
  check Alcotest.bool "not armed" false (Chaos.armed ())

(* -- fault surfacing ---------------------------------------------------- *)

(* With a high fault rate every program faults almost immediately; the
   parallel executor must re-raise Injected at the join rather than hang
   (a hang here fails the suite's timeout, which is the real assertion). *)
let test_fault_surfaces_in_parallel () =
  let cfg =
    {
      Chaos.default_config with
      Chaos.fault_rate = 0.9;
      max_faults = 1;
    }
  in
  let t = Synthetic.generate ~seed:3 ~ops:150 ~depth:4 ~locs:6 () in
  let surfaced = ref 0 in
  for chaos_seed = 1 to 5 do
    let inst = Synthetic.instantiate t in
    let det = Sf_order.make () in
    match
      Chaos.with_armed ~config:cfg ~seed:chaos_seed (fun () ->
          ignore
            (Par_exec.run ~workers:4 det.Detector.callbacks
               ~root:det.Detector.root inst.Synthetic.program))
    with
    | () -> ()
    | exception Chaos.Injected _ -> incr surfaced
  done;
  check Alcotest.bool "faults surfaced as Injected" true (!surfaced >= 4)

let test_fault_budget_respected () =
  let cfg =
    { Chaos.default_config with Chaos.fault_rate = 1.0; max_faults = 1 }
  in
  let t = Synthetic.generate ~seed:5 ~ops:100 ~depth:3 ~locs:4 () in
  let inst = Synthetic.instantiate t in
  let det = Sf_order.make () in
  (try
     Chaos.with_armed ~config:cfg ~seed:11 (fun () ->
         ignore
           (Serial_exec.run det.Detector.callbacks ~root:det.Detector.root
              inst.Synthetic.program))
   with Chaos.Injected _ -> ());
  check Alcotest.int "exactly one fault raised" 1 (Chaos.injected_count ())

(* -- differential runner ------------------------------------------------ *)

let test_runner_clean_detector () =
  let cfg =
    {
      Runner.default_config with
      Runner.seeds = 15;
      workers = 4;
      chaos = Some Chaos.default_config;
    }
  in
  let r = Runner.run cfg ~make:(fun () -> Sf_order.make ()) in
  check Alcotest.int "no mismatches" 0 (List.length r.Runner.mismatches);
  check Alcotest.int "all matched" 15 r.Runner.matched

(* A deliberately broken detector: sf-order with reads dropped on the
   floor, so read-write races go unreported. *)
let buggy_detector () =
  let det = Sf_order.make () in
  let cb = det.Detector.callbacks in
  {
    det with
    Detector.name = "sf-order-deaf";
    callbacks = { cb with Events.on_read = (fun _ _ -> ()) };
  }

let find_buggy_failure cfg =
  let rec go seed =
    if seed > 200 then Alcotest.fail "no seed exposed the buggy detector"
    else
      match Runner.run_seed cfg ~make:buggy_detector ~seed with
      | Runner.Failed m -> m
      | _ -> go (seed + 1)
  in
  go 1

let test_runner_catches_buggy_detector () =
  (* serial + no injection: the predicate is fully deterministic *)
  let cfg =
    {
      Runner.default_config with
      Runner.workers = 1;
      chaos = None;
      shrink = false;
    }
  in
  let m = find_buggy_failure cfg in
  check Alcotest.bool "oracle saw races the detector missed" true
    (m.Runner.expected.Runner.racy <> []);
  check Alcotest.bool "no crash" true (m.Runner.crash = None)

let test_shrinker_minimizes_deterministically () =
  let cfg =
    {
      Runner.default_config with
      Runner.workers = 1;
      chaos = None;
      shrink = true;
    }
  in
  let m1 = find_buggy_failure cfg in
  let m2 = find_buggy_failure cfg in
  let reduced1 = Option.get m1.Runner.reduced in
  let reduced2 = Option.get m2.Runner.reduced in
  check Alcotest.bool "reduced below 20 nodes" true (Synthetic.size reduced1 < 20);
  check Alcotest.bool "shrinking did work" true
    (m1.Runner.shrink_steps > 0);
  check Alcotest.bool "deterministic reproducer" true
    (Synthetic.tree reduced1 = Synthetic.tree reduced2);
  (* the reproducer is still a failing input: it has real races *)
  let oracle_verdict = Runner.oracle reduced1 in
  check Alcotest.bool "reproducer is racy" true
    (oracle_verdict.Runner.racy <> [])

(* A detector whose callbacks record nothing never reports a race, so
   any racy program is a guaranteed differential failure. *)
let deaf () =
  {
    (Sf_order.make ()) with
    Detector.name = "deaf";
    callbacks = Events.null;
    root = Events.Unit_state;
  }

(* The deaf detector's first racy seed mismatches; its reproducer must
   be a complete log whose naive verdict is the oracle's. *)
let test_repro_dump_replays () =
  let dir = Filename.temp_dir "sfr_chaos" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let cfg =
        {
          Runner.default_config with
          Runner.workers = 1;
          chaos = None;
          out_dir = Some dir;
        }
      in
      let rec first_failure seed =
        if seed > 50 then Alcotest.fail "no seed exposed the deaf detector"
        else
          match Runner.run_seed cfg ~make:deaf ~seed with
          | Runner.Failed m -> m
          | _ -> first_failure (seed + 1)
      in
      let m = first_failure 1 in
      check Alcotest.bool "oracle saw races" true
        (m.Runner.expected.Runner.racy <> []);
      let path = Option.get m.Runner.repro_path in
      check Alcotest.string "repro file name"
        (Printf.sprintf "chaos-repro-%d.sflog" m.Runner.seed)
        (Filename.basename path);
      let trace, det = Naive_detector.trace_detector () in
      let v = Stream_replay.run_file det path in
      check Alcotest.string "repro replays complete" "complete"
        (Stream_replay.status_to_string v.Stream_replay.status);
      let naive =
        Naive_detector.analyze (Trace.dag trace) (Trace.accesses trace)
      in
      check Alcotest.int "naive verdict of the repro matches the oracle"
        (List.length m.Runner.expected.Runner.racy)
        (List.length naive.Naive_detector.racy_locations))

(* -- the differential at 10x the default op budget ------------------------ *)

let big_config =
  {
    Runner.default_config with
    Runner.seeds = 8;
    ops = Runner.default_config.Runner.ops * 10;
    depth = 5;
    workers = 4;
  }

(* sf-order under chaos at 10x the default op budget: zero mismatches
   against the naive oracle *)
let test_driver_10x_ops () =
  let report = Runner.run big_config ~make:(fun () -> Sf_order.make ()) in
  check Alcotest.int "all seeds ran" big_config.Runner.seeds
    report.Runner.seeds_run;
  check Alcotest.int "no mismatches at 10x ops"
    (report.Runner.matched + report.Runner.faults_surfaced)
    report.Runner.seeds_run

(* the mismatch path and the shrinker at 600 ops: the deaf detector must
   fail a racy seed, and the reduced program must still be racy *)
let test_shrinker_600_ops () =
  let cfg =
    {
      big_config with
      Runner.seeds = 1;
      workers = 1;
      chaos = None;
      shrink = true;
      ops = 600;
    }
  in
  let generate seed =
    Synthetic.generate ~seed ~ops:cfg.Runner.ops ~depth:cfg.Runner.depth
      ~locs:cfg.Runner.locs ()
  in
  let rec racy_seed s =
    if s > 50 then Alcotest.fail "no racy seed in 1..50"
    else if (Runner.oracle (generate s)).Runner.racy <> [] then s
    else racy_seed (s + 1)
  in
  let seed = racy_seed 1 in
  match Runner.run_seed cfg ~make:deaf ~seed with
  | Runner.Match | Runner.Fault_surfaced ->
      Alcotest.fail "deaf detector matched a racy oracle verdict"
  | Runner.Failed m -> (
      check Alcotest.bool "shrink ran" true (m.Runner.shrink_steps > 0);
      match m.Runner.reduced with
      | None -> Alcotest.fail "no reduced reproducer"
      | Some r ->
          check Alcotest.bool "reproducer no larger than original" true
            (Synthetic.size r <= Synthetic.size (generate seed));
          check Alcotest.bool "reproducer still racy under oracle" true
            ((Runner.oracle r).Runner.racy <> []))

(* -- of_tree sanitization ---------------------------------------------- *)

let test_of_tree_drops_orphan_gets () =
  let tree =
    [ Synthetic.OGet 0; Synthetic.OCreate (1, 0, [ Synthetic.OWork 1 ]) ]
  in
  let t = Synthetic.of_tree ~locs:2 tree in
  (* the orphan OGet (before its create) is gone; create + work remain *)
  check Alcotest.int "orphan get dropped" 2 (Synthetic.size t);
  (* the rebuilt program runs *)
  let inst = Synthetic.instantiate t in
  let det = Sf_order.make () in
  ignore
    (Serial_exec.run det.Detector.callbacks ~root:det.Detector.root
       inst.Synthetic.program)

let () =
  Alcotest.run "chaos"
    [
      ( "determinism",
        [
          Alcotest.test_case "fixed seed, identical trace" `Quick
            test_fixed_seed_determinism;
          Alcotest.test_case "disarmed is silent" `Quick test_disarmed_is_silent;
        ] );
      ( "faults",
        [
          Alcotest.test_case "surface in parallel" `Quick
            test_fault_surfaces_in_parallel;
          Alcotest.test_case "budget respected" `Quick
            test_fault_budget_respected;
        ] );
      ( "runner",
        [
          Alcotest.test_case "clean detector matches oracle" `Quick
            test_runner_clean_detector;
          Alcotest.test_case "buggy detector caught" `Quick
            test_runner_catches_buggy_detector;
          Alcotest.test_case "repro dump replays" `Quick test_repro_dump_replays;
          Alcotest.test_case "shrinker minimizes" `Quick
            test_shrinker_minimizes_deterministically;
          Alcotest.test_case "of_tree sanitizes" `Quick
            test_of_tree_drops_orphan_gets;
        ] );
      ( "chaos-oracle",
        [
          Alcotest.test_case "driver at 10x ops" `Quick test_driver_10x_ops;
          Alcotest.test_case "shrinker" `Quick test_shrinker_600_ops;
        ] );
    ]
