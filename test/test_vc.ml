(* Differential tests for the vector-clock detector backend and the
   process-wide detector registry.

   The contract: [Vc_order.make ()] is an independent oracle-grade
   detector — on serial (depth-first) executions it must agree with the
   exhaustive offline naive analysis on the racy-location set, and with
   SF-Order byte-for-byte on the full observable outcome (reports with
   future attribution, query totals, reader high-water mark), because
   both walk the same access history and allocate future IDs in the
   same order. That agreement is what lets the chaos differential and
   the shrinker replace the O(n²) naive oracle with vc-order and run at
   10×+ the DAG sizes. *)

module Workload = Sfr_workloads.Workload
module Wregistry = Sfr_workloads.Registry
module Synthetic = Sfr_workloads.Synthetic
module Detector = Sfr_detect.Detector
module Race = Sfr_detect.Race
module Sf_order = Sfr_detect.Sf_order
module Vc_order = Sfr_detect.Vc_order
module Registry = Sfr_detect.Registry
module Naive_detector = Sfr_detect.Naive_detector
module Events = Sfr_runtime.Events
module Serial_exec = Sfr_runtime.Serial_exec
module Par_exec = Sfr_runtime.Par_exec
module Trace = Sfr_runtime.Trace
module Chaos = Sfr_chaos.Chaos
module Runner = Sfr_chaos_driver.Chaos_runner
module Recorder = Sfr_eventlog.Recorder
module Stream_replay = Sfr_eventlog.Stream_replay

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

type outcome = {
  o_reports : (int * Race.kind * int * int * int) list;
  o_queries : int;
  o_max_readers : int;
}

let outcome_pp ppf o =
  Format.fprintf ppf "{queries=%d; max_readers=%d; reports=[%a]}" o.o_queries
    o.o_max_readers
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       (fun ppf (l, k, p, c, n) ->
         Format.fprintf ppf "%d:%a:%d->%d x%d" l Race.pp_kind k p c n))
    o.o_reports

let outcome = Alcotest.testable outcome_pp ( = )

let run_full ?workers ?(base = 0) det prog =
  (match workers with
  | None ->
      Serial_exec.run det.Detector.callbacks ~root:det.Detector.root prog |> fst
  | Some w ->
      Par_exec.run ~workers:w det.Detector.callbacks ~root:det.Detector.root
        prog
      |> fst);
  {
    o_reports =
      List.map
        (fun (r : Race.report) ->
          ( r.Race.loc - base,
            r.Race.kind,
            r.Race.prev_future,
            r.Race.cur_future,
            r.Race.count ))
        (Race.reports det.Detector.races);
    o_queries = det.Detector.queries ();
    o_max_readers = det.Detector.max_readers ();
  }

let racy_set o = List.map (fun (l, _, _, _, _) -> l) o.o_reports

(* exhaustive offline ground truth for an arbitrary program thunk,
   rebased to [base] *)
let naive_racy ~base prog =
  let trace, cb, root = Trace.make ~log_accesses:true () in
  let (), _ = Serial_exec.run cb ~root prog in
  let v = Naive_detector.analyze (Trace.dag trace) (Trace.accesses trace) in
  List.sort compare (List.map (fun l -> l - base) v.Naive_detector.racy_locations)

(* ---------- registry ---------- *)

let builtin_names = [ "multibags"; "f-order"; "sf-order"; "sf-order-2pf"; "vc-order" ]

let test_registry_builtins () =
  let names = Registry.names () in
  List.iter
    (fun n ->
      check bool (Printf.sprintf "registry has %s" n) true (List.mem n names))
    builtin_names;
  (* registry lookup returns the entry under its own name *)
  List.iter
    (fun n ->
      match Registry.find n with
      | Some e -> check Alcotest.string "entry name" n e.Registry.name
      | None -> Alcotest.failf "find %s returned None" n)
    builtin_names;
  check bool "unknown name misses" true (Registry.find "no-such" = None)

let test_registry_caps () =
  let caps n =
    match Registry.find n with
    | Some e -> e.Registry.caps
    | None -> Alcotest.failf "missing entry %s" n
  in
  check bool "multibags is serial" false (caps "multibags").Registry.supports_parallel;
  check bool "multibags is oracle-grade" true (caps "multibags").Registry.oracle_grade;
  check bool "sf-order is a figure column" true (caps "sf-order").Registry.figure;
  check bool "vc-order runs parallel" true (caps "vc-order").Registry.supports_parallel;
  check bool "vc-order is oracle-grade" true (caps "vc-order").Registry.oracle_grade;
  check bool "vc-order is not a figure column" false (caps "vc-order").Registry.figure

let test_registry_listing () =
  let l = Registry.listing () in
  let has needle =
    let n = String.length needle and m = String.length l in
    let rec go i = i + n <= m && (String.sub l i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun n -> check bool (Printf.sprintf "listing mentions %s" n) true (has n))
    builtin_names;
  check bool "listing shows caps" true (has "parallel");
  check bool "unknown message embeds listing" true
    (let u = Registry.unknown "zzz" in
     let rec sub i =
       i + String.length "vc-order" <= String.length u
       && (String.sub u i (String.length "vc-order") = "vc-order" || sub (i + 1))
     in
     sub 0)

let test_registry_register () =
  let entry =
    {
      Registry.name = "test-dummy";
      label = "Dummy";
      doc = "test-only duplicate-detection probe";
      make = (fun () -> Sf_order.make ());
      caps =
        {
          Registry.supports_parallel = true;
          oracle_grade = false;
          figure = false;
        };
    }
  in
  Registry.register entry;
  check bool "registered entry is found" true (Registry.find "test-dummy" <> None);
  check bool "duplicate registration rejected" true
    (match Registry.register entry with
    | () -> false
    | exception Invalid_argument _ -> true)

(* every registered detector must run every registry workload at tiny
   scale — the in-process version of `make detector-smoke`. A detector
   added to the registry but broken on a basic workload fails here, not
   silently in a skipped CI lane. *)
let test_registry_matrix_smoke () =
  List.iter
    (fun (e : Registry.entry) ->
      List.iter
        (fun (w : Workload.t) ->
          let det = e.Registry.make () in
          let inst = w.Workload.instantiate Workload.Tiny in
          let o = run_full ~base:inst.Workload.mem_base det inst.Workload.program in
          check (Alcotest.list int)
            (Printf.sprintf "%s/%s is race-free" e.Registry.name w.Workload.name)
            [] (racy_set o);
          check bool
            (Printf.sprintf "%s/%s performed queries" e.Registry.name w.Workload.name)
            true (o.o_queries > 0))
        Wregistry.all)
    (Registry.all ())

(* ---------- vc-order vs the naive oracle ---------- *)

let test_workloads_vs_naive () =
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun inject_race ->
          let naive =
            let inst = w.Workload.instantiate ~inject_race Workload.Tiny in
            naive_racy ~base:inst.Workload.mem_base inst.Workload.program
          in
          let vc =
            let inst = w.Workload.instantiate ~inject_race Workload.Tiny in
            racy_set
              (run_full ~base:inst.Workload.mem_base (Vc_order.make ())
                 inst.Workload.program)
          in
          check (Alcotest.list int)
            (Printf.sprintf "%s inject=%b: vc = naive" w.Workload.name inject_race)
            naive vc;
          if inject_race then
            check bool
              (Printf.sprintf "%s inject=%b: race found" w.Workload.name inject_race)
              true (vc <> []))
        [ false; true ])
    Wregistry.all

let test_synthetic_vs_naive () =
  List.iter
    (fun race_free ->
      for seed = 1 to 12 do
        let t = Synthetic.generate ~race_free ~seed ~ops:150 ~depth:5 ~locs:8 () in
        let naive =
          let inst = Synthetic.instantiate t in
          naive_racy ~base:inst.Synthetic.mem_base inst.Synthetic.program
        in
        let vc =
          let inst = Synthetic.instantiate t in
          racy_set
            (run_full ~base:inst.Synthetic.mem_base (Vc_order.make ())
               inst.Synthetic.program)
        in
        check (Alcotest.list int)
          (Printf.sprintf "seed %d race_free=%b: vc = naive" seed race_free)
          naive vc;
        if race_free then
          check (Alcotest.list int)
            (Printf.sprintf "seed %d race_free: empty" seed)
            [] vc
      done)
    [ false; true ]

(* ---------- vc-order vs SF-Order, serial, byte-identical ---------- *)

let histories = [ (`Mutex, "mutex"); (`Lockfree, "lockfree") ]

(* serial execution is deterministic, so the agreement must be exact —
   same reports (locations, kinds, attributed future IDs, witness
   counts), same query total, same reader high-water mark. Sizes are
   ~10× the 150-op differentials above: this is the scale regime the
   chaos oracle swap buys. *)
let test_vc_sf_large_scale () =
  List.iter
    (fun (history, hname) ->
      for seed = 1 to 6 do
        let t = Synthetic.generate ~seed ~ops:2000 ~depth:6 ~locs:10 () in
        let run make =
          let inst = Synthetic.instantiate t in
          run_full ~base:inst.Synthetic.mem_base (make ()) inst.Synthetic.program
        in
        check outcome
          (Printf.sprintf "seed %d %s: vc = sf byte-identical" seed hname)
          (run (fun () -> Sf_order.make ~history ()))
          (run (fun () -> Vc_order.make ~history ()))
      done)
    histories

(* ---------- parallel and chaos-perturbed schedules ---------- *)

let test_parallel_vc () =
  for seed = 1 to 4 do
    let t = Synthetic.generate ~seed ~ops:300 ~depth:5 ~locs:8 () in
    List.iter
      (fun (history, hname) ->
        let serial =
          let inst = Synthetic.instantiate t in
          run_full ~base:inst.Synthetic.mem_base (Vc_order.make ~history ())
            inst.Synthetic.program
        in
        let par =
          let inst = Synthetic.instantiate t in
          run_full ~workers:4 ~base:inst.Synthetic.mem_base
            (Vc_order.make ~history ())
            inst.Synthetic.program
        in
        check (Alcotest.list int)
          (Printf.sprintf "seed %d %s: 4-domain vc race set = serial" seed hname)
          (racy_set serial) (racy_set par))
      histories
  done

let test_chaos_parallel_vc () =
  for seed = 1 to 4 do
    let t = Synthetic.generate ~seed:(200 + seed) ~ops:300 ~depth:5 ~locs:8 () in
    List.iter
      (fun (history, hname) ->
        let serial =
          let inst = Synthetic.instantiate t in
          run_full ~base:inst.Synthetic.mem_base (Vc_order.make ~history ())
            inst.Synthetic.program
        in
        let perturbed =
          Chaos.arm ~seed ();
          Fun.protect ~finally:Chaos.disarm (fun () ->
              let inst = Synthetic.instantiate t in
              run_full ~workers:4 ~base:inst.Synthetic.mem_base
                (Vc_order.make ~history ())
                inst.Synthetic.program)
        in
        check (Alcotest.list int)
          (Printf.sprintf "seed %d %s: chaos 4-domain vc race set = serial" seed
             hname)
          (racy_set serial) (racy_set perturbed))
      histories
  done

(* ---------- the chaos driver with the vc oracle ---------- *)

let vc_oracle_config =
  {
    Runner.default_config with
    Runner.seeds = 8;
    ops = Runner.default_config.Runner.ops * 10;
    depth = 5;
    workers = 4;
    oracle = Runner.Oracle_detector (fun () -> Vc_order.make ());
  }

(* the vc ground truth must agree with the naive one on sizes both can
   handle — the oracle swap changes the cost, not the verdicts *)
let test_vc_oracle_matches_naive_oracle () =
  for seed = 1 to 10 do
    let t =
      Synthetic.generate ~seed ~ops:Runner.default_config.Runner.ops
        ~depth:Runner.default_config.Runner.depth
        ~locs:Runner.default_config.Runner.locs ()
    in
    let naive = Runner.ground_truth { vc_oracle_config with Runner.oracle = Runner.Naive } t in
    let vc = Runner.ground_truth vc_oracle_config t in
    check (Alcotest.list int)
      (Printf.sprintf "seed %d: oracle racy sets agree" seed)
      naive.Runner.racy vc.Runner.racy;
    check int (Printf.sprintf "seed %d: checksums agree" seed) naive.Runner.checksum
      vc.Runner.checksum
  done

(* sf-order under chaos at 10× the naive-oracle op budget: zero
   mismatches against the vc ground truth *)
let test_chaos_driver_vc_oracle () =
  let report = Runner.run vc_oracle_config ~make:(fun () -> Sf_order.make ()) in
  check int "all seeds ran" vc_oracle_config.Runner.seeds report.Runner.seeds_run;
  check int "no mismatches at 10x ops"
    (report.Runner.matched + report.Runner.faults_surfaced)
    report.Runner.seeds_run

(* a detector that never looks at an access: races stay empty, so any
   racy program is a guaranteed differential failure — exercising the
   mismatch path and the shrinker under the vc oracle *)
let blind_detector () =
  {
    Detector.name = "blind";
    callbacks = Events.null;
    root = Events.Unit_state;
    races = Race.create ();
    queries = (fun () -> 0);
    reach_words = (fun () -> 0);
    reach_table_words = (fun () -> 0);
    history_words = (fun () -> 0);
    max_readers = (fun () -> 0);
    metrics = Detector.no_metrics;
    supports_parallel = false;
  }

let test_shrinker_vc_oracle () =
  let cfg =
    {
      vc_oracle_config with
      Runner.seeds = 1;
      workers = 1;
      chaos = None;
      shrink = true;
      ops = 600;
    }
  in
  (* find a seed whose program actually races, so the blind detector
     must disagree with the oracle *)
  let seed =
    let rec scan s =
      if s > 50 then Alcotest.fail "no racy seed in 1..50"
      else
        let t =
          Synthetic.generate ~seed:s ~ops:cfg.Runner.ops ~depth:cfg.Runner.depth
            ~locs:cfg.Runner.locs ()
        in
        if (Runner.ground_truth cfg t).Runner.racy <> [] then s else scan (s + 1)
    in
    scan 1
  in
  match Runner.run_seed cfg ~make:blind_detector ~seed with
  | Runner.Match | Runner.Fault_surfaced ->
      Alcotest.fail "blind detector matched a racy oracle verdict"
  | Runner.Failed m -> (
      check bool "shrink ran" true (m.Runner.shrink_steps > 0);
      match m.Runner.reduced with
      | None -> Alcotest.fail "no reduced reproducer"
      | Some r ->
          let orig =
            Synthetic.generate ~seed ~ops:cfg.Runner.ops ~depth:cfg.Runner.depth
              ~locs:cfg.Runner.locs ()
          in
          check bool "reproducer no larger than original" true
            (Synthetic.size r <= Synthetic.size orig);
          (* the reduced program must still fail the differential *)
          check bool "reproducer still racy under oracle" true
            ((Runner.ground_truth cfg r).Runner.racy <> []))

(* ---------- replay ---------- *)

(* a recorded racy execution replayed under vc-order must produce the
   same reports as a live serial vc run of the same program *)
let test_replay_vc () =
  let t = Synthetic.generate ~seed:11 ~ops:400 ~depth:5 ~locs:8 () in
  let live =
    let inst = Synthetic.instantiate t in
    run_full ~base:inst.Synthetic.mem_base (Vc_order.make ())
      inst.Synthetic.program
  in
  check bool "seed 11 races (non-trivial replay)" true (racy_set live <> []);
  let path = Filename.temp_file "test_vc" ".sflog" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let rec_base =
        let inst = Synthetic.instantiate t in
        let recorder, cb, root = Recorder.create ~path () in
        let (), _ = Serial_exec.run cb ~root inst.Synthetic.program in
        ignore (Recorder.close recorder);
        inst.Synthetic.mem_base
      in
      let det = Vc_order.make () in
      (match (Stream_replay.run_file det path).Stream_replay.status with
      | Stream_replay.Complete -> ()
      | s -> Alcotest.failf "replay failed: %s" (Stream_replay.status_to_string s));
      let replayed =
        List.map
          (fun (r : Race.report) ->
            ( r.Race.loc - rec_base,
              r.Race.kind,
              r.Race.prev_future,
              r.Race.cur_future,
              r.Race.count ))
          (Race.reports det.Detector.races)
      in
      check outcome "replayed vc outcome = live serial vc outcome" live
        {
          o_reports = replayed;
          o_queries = det.Detector.queries ();
          o_max_readers = det.Detector.max_readers ();
        })

let () =
  Alcotest.run "vc"
    [
      ( "registry",
        [
          Alcotest.test_case "builtins" `Quick test_registry_builtins;
          Alcotest.test_case "caps" `Quick test_registry_caps;
          Alcotest.test_case "listing" `Quick test_registry_listing;
          Alcotest.test_case "register" `Quick test_registry_register;
          Alcotest.test_case "matrix smoke" `Quick test_registry_matrix_smoke;
        ] );
      ( "vc-vs-naive",
        [
          Alcotest.test_case "workloads" `Quick test_workloads_vs_naive;
          Alcotest.test_case "synthetic" `Quick test_synthetic_vs_naive;
        ] );
      ( "vc-vs-sf",
        [ Alcotest.test_case "large-scale serial" `Quick test_vc_sf_large_scale ] );
      ( "parallel",
        [
          Alcotest.test_case "4-domain" `Quick test_parallel_vc;
          Alcotest.test_case "chaos-perturbed" `Quick test_chaos_parallel_vc;
        ] );
      ( "chaos-oracle",
        [
          Alcotest.test_case "oracle agreement" `Quick
            test_vc_oracle_matches_naive_oracle;
          Alcotest.test_case "driver at 10x ops" `Quick test_chaos_driver_vc_oracle;
          Alcotest.test_case "shrinker" `Quick test_shrinker_vc_oracle;
        ] );
      ("replay", [ Alcotest.test_case "vc replay" `Quick test_replay_vc ]);
    ]
