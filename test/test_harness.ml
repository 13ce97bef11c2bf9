(* Harness tests: measurement modes behave as specified (reach mode
   performs no memory-access queries; full mode detects), simulated time
   scales sensibly, every figure generator runs end-to-end at tiny scale
   (smoke), and Fig. 5's shape holds as a count. *)

module Workload = Sfr_workloads.Workload
module Registry = Sfr_workloads.Registry
module Runner = Sfr_harness.Runner
module Figures = Sfr_harness.Figures
module Sf_order = Sfr_detect.Sf_order
module F_order = Sfr_detect.F_order

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let mk name scale () = (Option.get (Registry.find name)).Workload.instantiate scale

let test_reach_mode_no_queries () =
  let m =
    Runner.time_serial ~repeats:1 (mk "mm" Workload.Tiny)
      (Runner.Reach (fun () -> Sf_order.make ()))
  in
  check int "reach mode performs no access queries" 0 m.Runner.queries;
  check bool "but builds reachability structures" true (m.Runner.reach_words > 0)

let test_full_mode_queries () =
  let m =
    Runner.time_serial ~repeats:1 (mk "mm" Workload.Tiny)
      (Runner.Full (fun () -> Sf_order.make ()))
  in
  check bool "full mode queries" true (m.Runner.queries > 0);
  check int "race free" 0 m.Runner.racy_locations

let test_base_mode () =
  let m = Runner.time_serial ~repeats:3 (mk "sw" Workload.Tiny) Runner.Base in
  check bool "time measured" true (m.Runner.seconds >= 0.0);
  check int "no detector stats" 0 m.Runner.queries

let test_record_counts () =
  let r = Runner.record (mk "mm" Workload.Tiny) in
  check bool "reads recorded" true (r.Runner.reads > 500);
  check bool "writes recorded" true (r.Runner.writes > 100)

let test_simulated_time () =
  let r = Runner.record (mk "mm" Workload.Tiny) in
  let t1 = Runner.simulated_time r ~measured_t1:10.0 ~workers:1 in
  check (Alcotest.float 1e-9) "P=1 is the measured time" 10.0 t1;
  let t4 = Runner.simulated_time r ~measured_t1:10.0 ~workers:4 in
  check bool "P=4 is faster" true (t4 < 10.0);
  check bool "but bounded by span" true (t4 > 0.0)

let test_reach_only_strips_accesses () =
  let det = Sf_order.make () in
  let cb = Runner.reach_only det.Sfr_detect.Detector.callbacks in
  (* the stripped callbacks must ignore reads/writes *)
  cb.Sfr_runtime.Events.on_read det.Sfr_detect.Detector.root 0;
  cb.Sfr_runtime.Events.on_write det.Sfr_detect.Detector.root 0;
  check int "no queries" 0 (det.Sfr_detect.Detector.queries ())

(* smoke: every table generator runs at tiny scale *)
let test_figures_smoke () =
  Figures.fig3 ~scale:Workload.Tiny;
  Figures.fig4 ~scale:Workload.Tiny ~repeats:1 ~workers:4;
  Figures.fig5 ~scale:Workload.Tiny;
  Figures.sweep ~scale:Workload.Tiny ~repeats:1;
  Figures.ablation_locks ~scale:Workload.Tiny ~repeats:1;
  Figures.ablation_sets ~scale:Workload.Tiny ~repeats:1;
  Figures.ablation_readers ~scale:Workload.Tiny ~repeats:1

(* Fig. 5's shape: on every workload SF-Order's reachability tables take
   fewer words than F-Order's, and the word count is deterministic (it is
   a count, not a timing) *)
let test_fig5_shape () =
  List.iter
    (fun (w : Workload.t) ->
      let words make =
        let m = Runner.time_serial ~repeats:1 (mk w.Workload.name Workload.Tiny) (Runner.Reach make) in
        m.Runner.reach_table_words
      in
      let sf = words (fun () -> Sf_order.make ()) in
      let f = words (fun () -> F_order.make ()) in
      if not (sf < f) then
        Alcotest.failf "%s: SF-Order table words (%d) not below F-Order's (%d)"
          w.Workload.name sf f;
      check int (w.Workload.name ^ ": SF-Order words repeat") sf
        (words (fun () -> Sf_order.make ())))
    Registry.all

let () =
  Alcotest.run "harness"
    [
      ( "runner",
        [
          Alcotest.test_case "reach mode: no queries" `Quick test_reach_mode_no_queries;
          Alcotest.test_case "full mode: queries" `Quick test_full_mode_queries;
          Alcotest.test_case "base mode" `Quick test_base_mode;
          Alcotest.test_case "record counts" `Quick test_record_counts;
          Alcotest.test_case "simulated time" `Quick test_simulated_time;
          Alcotest.test_case "reach_only strips accesses" `Quick
            test_reach_only_strips_accesses;
        ] );
      ( "figures",
        [
          Alcotest.test_case "all tables smoke" `Slow test_figures_smoke;
          Alcotest.test_case "fig5 shape: SF-Order below F-Order" `Quick test_fig5_shape;
        ] );
    ]
