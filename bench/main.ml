(* Benchmark harness entry point.

   Subcommands regenerate the paper's evaluation artifacts:
     fig3              benchmark characteristics table
     fig4              execution-time table (T1 measured, T_P simulated)
     fig5              reachability-memory table
     motivation        futures-vs-fork-join Smith-Waterman span comparison
     complexity        O(k^2) reachability-construction validation (Lemma 3.12)
     sweep             simulated scalability curves
     ablation-locks    access-history locking cost (paper section 4)
     ablation-sets     bitmap vs hash-table gp backends
     ablation-readers  keep-all vs 2-per-future reader policies
     ablation-history  mutex vs lock-free vs unsynchronized access history
     prof-overhead     A/B microbenchmark of the disabled Prof hot path
     micro             Bechamel micro-benchmarks of the substrate
     all               everything above (default)

   Options: --scale tiny|small|default|large|paper   (default: default)
            --repeats N                              (default: 2)
            --workers P                              (default: 20)
            --no-metrics       disable Sfr_obs counters for timing runs

   End-to-end performance of the user paths (live, record/replay, serve)
   is measured by sfbench (benchmark/), not here. *)

module Figures = Sfr_harness.Figures
module Workload = Sfr_workloads.Workload

(* ---------------------------------------------------------------- *)
(* Bechamel micro-benchmarks                                          *)
(* ---------------------------------------------------------------- *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  print_endline "Micro-benchmarks (Bechamel, monotonic clock, ns/run):";
  let om_insert =
    Test.make ~name:"om insert_after (x100)"
      (Staged.stage (fun () ->
           let t, base = Sfr_om.Om.create () in
           for _ = 1 to 100 do
             ignore (Sfr_om.Om.insert_after t base)
           done))
  in
  let om_query =
    let t, base = Sfr_om.Om.create () in
    let items = Array.init 1000 (fun _ -> Sfr_om.Om.insert_after t base) in
    Test.make ~name:"om precedes (x100)"
      (Staged.stage (fun () ->
           for i = 0 to 99 do
             ignore (Sfr_om.Om.precedes t items.(i) items.(999 - i))
           done))
  in
  let bitset_ops =
    Test.make ~name:"bitset add+mem (x100)"
      (Staged.stage (fun () ->
           let s = Sfr_support.Bitset.create () in
           for i = 0 to 99 do
             Sfr_support.Bitset.add s (i * 7);
             ignore (Sfr_support.Bitset.mem s (i * 3))
           done))
  in
  let fp_merge =
    let eng = Sfr_reach.Fp_sets.create Sfr_reach.Fp_sets.Bitmap in
    Test.make ~name:"fp_sets disjoint merge"
      (Staged.stage (fun () ->
           let a = Sfr_reach.Fp_sets.with_added eng (Sfr_reach.Fp_sets.empty eng) 1 in
           let b = Sfr_reach.Fp_sets.with_added eng (Sfr_reach.Fp_sets.empty eng) 100 in
           Sfr_reach.Fp_sets.release (Sfr_reach.Fp_sets.merge eng a [ b ])))
  in
  let sp_order_query =
    let spo, root = Sfr_reach.Sp_order.create () in
    let c, t', _ = Sfr_reach.Sp_order.spawn spo ~cur:root ~block:None in
    Test.make ~name:"sp_order precedes (x100)"
      (Staged.stage (fun () ->
           for _ = 1 to 100 do
             ignore (Sfr_reach.Sp_order.precedes spo c t')
           done))
  in
  let tests = [ om_insert; om_query; bitset_ops; fp_merge; sp_order_query ] in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"micro" [ test ]) in
      let results = Analyze.all ols instance raw in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "  %-32s %12.1f ns/run\n%!" name est
          | Some _ | None -> Printf.printf "  %-32s (no estimate)\n%!" name)
        results)
    tests

(* ---------------------------------------------------------------- *)
(* prof-overhead: cost of instrumentation when profiling is off       *)
(* ---------------------------------------------------------------- *)

(* The contract the instrumented hot paths rely on: a disabled
   Prof.start/stop pair costs one atomic load plus an immediate-int
   compare. Measured A/B against an empty staged closure (harness floor)
   and against the enabled pair (two clock reads + histogram insert). *)
let prof_overhead () =
  let open Bechamel in
  let open Toolkit in
  let module Prof = Sfr_obs.Prof in
  print_endline
    "Prof instrumentation overhead (Bechamel, ns per start/stop pair x100):";
  let t = Prof.timer "prof.bench.overhead.ns" in
  let was_on = Prof.enabled () in
  let sink = ref 0 in
  let floor_test =
    Test.make ~name:"empty loop (floor, x100)"
      (Staged.stage (fun () ->
           for i = 1 to 100 do
             sink := !sink + i
           done))
  in
  let disabled_test =
    Test.make ~name:"disabled start/stop (x100)"
      (Staged.stage (fun () ->
           for i = 1 to 100 do
             sink := !sink + i;
             let t0 = Prof.start () in
             Prof.stop t t0
           done))
  in
  (* same contract for the telemetry probe surface: disarmed, the
     scheduler's per-decision gate and a mark are one atomic flag load *)
  let telemetry_disarmed_test =
    Test.make ~name:"disarmed telemetry mark (x100)"
      (Staged.stage (fun () ->
           for i = 1 to 100 do
             sink := !sink + i;
             Sfr_obs.Telemetry.mark "bench.disarmed"
           done))
  in
  (* the serve hot path's full disarmed gate set: one Prof pair plus the
     audit and trace flag loads every decode/ingest region pays *)
  let serve_gate = Prof.timer "prof.bench.serve_gate.ns" in
  let gate_sink = ref false in
  let serve_gates_test =
    Test.make ~name:"disarmed serve obs gates (x100)"
      (Staged.stage (fun () ->
           for i = 1 to 100 do
             sink := !sink + i;
             let t0 = Prof.start () in
             gate_sink :=
               Sfr_serve.Audit.armed () || Sfr_obs.Trace_event.is_on ();
             Prof.stop serve_gate t0
           done))
  in
  let enabled_test =
    Test.make ~name:"enabled start/stop (x100)"
      (Staged.stage (fun () ->
           for i = 1 to 100 do
             sink := !sink + i;
             let t0 = Prof.start () in
             Prof.stop t t0
           done))
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let measure test =
    let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"prof" [ test ]) in
    let results = Analyze.all ols instance raw in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Printf.printf "  %-32s %12.1f ns/run\n%!" name est
        | Some _ | None -> Printf.printf "  %-32s (no estimate)\n%!" name)
      results
  in
  Prof.disable ();
  measure floor_test;
  measure disabled_test;
  (if not (Sfr_obs.Telemetry.armed ()) then measure telemetry_disarmed_test
   else
     print_endline
       "  disarmed telemetry mark (x100)   (skipped: telemetry is armed)");
  (if not (Sfr_serve.Audit.armed () || Sfr_obs.Trace_event.is_on ()) then
     measure serve_gates_test
   else
     print_endline
       "  disarmed serve obs gates (x100)  (skipped: a sink is armed)");
  Prof.enable ();
  measure enabled_test;
  if not was_on then Prof.disable ();
  ignore !sink;
  ignore !gate_sink

(* ---------------------------------------------------------------- *)
(* argument handling                                                  *)
(* ---------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: main.exe [fig3|fig4|fig5|motivation|complexity|sweep|\n\
    \                 ablation-locks|ablation-sets|ablation-readers|\n\
    \                 ablation-history|prof-overhead|micro|all]\n\
    \                [--scale tiny|small|default|large|paper] [--repeats N]\n\
    \                [--workers P] [--no-metrics]";
  exit 2

let () =
  let scale = ref Workload.Default in
  let repeats = ref 2 in
  let workers = ref 20 in
  let command = ref "all" in
  let command_seen = ref false in
  let rec parse = function
    | [] -> ()
    | "--scale" :: s :: rest ->
        (match Workload.scale_of_string s with
        | Some sc -> scale := sc
        | None -> usage ());
        parse rest
    | "--repeats" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n > 0 -> repeats := n
        | Some _ | None -> usage ());
        parse rest
    | "--workers" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n > 0 -> workers := n
        | Some _ | None -> usage ());
        parse rest
    | "--no-metrics" :: rest ->
        Sfr_obs.Metrics.disable ();
        parse rest
    | cmd :: rest when (not !command_seen) && cmd <> "" && cmd.[0] <> '-' ->
        command := cmd;
        command_seen := true;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let scale = !scale and repeats = !repeats and workers = !workers in
  let rec run = function
    | "fig3" -> Figures.fig3 ~scale
    | "motivation" -> Figures.motivation ~scale
    | "complexity" -> Figures.complexity ()
    | "fig4" -> Figures.fig4 ~scale ~repeats ~workers
    | "fig5" -> Figures.fig5 ~scale
    | "sweep" -> Figures.sweep ~scale ~repeats
    | "ablation-locks" -> Figures.ablation_locks ~scale ~repeats
    | "ablation-sets" -> Figures.ablation_sets ~scale ~repeats
    | "ablation-readers" -> Figures.ablation_readers ~scale ~repeats
    | "ablation-history" -> Figures.ablation_history ~scale ~repeats
    | "prof-overhead" -> prof_overhead ()
    | "micro" -> micro ()
    | "all" ->
        List.iter
          (fun c ->
            run c;
            print_newline ())
          [ "fig3"; "fig4"; "fig5"; "motivation"; "complexity"; "sweep";
            "ablation-locks"; "ablation-sets"; "ablation-readers";
            "ablation-history"; "micro"; "prof-overhead" ]
    | _ -> usage ()
  in
  run !command
