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
     eventlog          record-only overhead vs live detection; shard scaling
     scaling           measured multicore runs per domain count -> schema-v2 JSON
     profile           dump per-configuration snapshots as schema-v2 JSON
     perfdiff OLD NEW  compare two profile dumps; exit 1 on regression
     prof-overhead     A/B microbenchmark of the disabled Prof hot path
     micro             Bechamel micro-benchmarks of the substrate
     all               everything above except profile/perfdiff (default)

   Options: --scale tiny|small|default|large|paper   (default: default)
            --repeats N                              (default: 2)
            --workers P                              (default: 20)
            --domains N,N,...  domain counts for scaling (default: 1,2,4,8)
            --trace-out FILE   write a chrome://tracing JSON of the run
                               (includes telemetry counter tracks)
            --telemetry-out F  sample continuous telemetry to F as JSONL
                               and print a utilization-over-time table
            --sample-ms N      telemetry sampling period (default: 10)
            --profile-out FILE (default: BENCH_profile.json)
            --scaling-out FILE (default: BENCH_scaling.json)
            --report-only      perfdiff prints but never exits 1
            --no-metrics       disable Sfr_obs counters for timing runs   *)

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
(* perfdiff: regression gate over two profile dumps                   *)
(* ---------------------------------------------------------------- *)

(* Exit codes follow the racedetect convention: 0 clean, 1 regression
   found, 2 usage/schema/IO problem. [--report-only] keeps the table but
   downgrades exit 1 to 0, for advisory CI lanes. *)
let perfdiff ~report_only old_path new_path =
  let module Bs = Sfr_harness.Bench_schema in
  let load path =
    match Bs.load path with
    | Ok t -> t
    | Error msg ->
        Printf.eprintf "perfdiff: %s: %s\n" path msg;
        exit 2
  in
  let old_ = load old_path in
  let new_ = load new_path in
  match Bs.diff ~old_ ~new_ with
  | Error msg ->
      Printf.eprintf "perfdiff: %s\n" msg;
      exit 2
  | Ok d ->
      Format.printf "perfdiff %s -> %s@." old_path new_path;
      Format.printf "%a" Bs.pp_diff d;
      if Bs.has_regression d then
        if report_only then
          Format.printf "(report-only: regression NOT failing the run)@."
        else exit 1

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
(* event-log record / replay                                          *)
(* ---------------------------------------------------------------- *)

(* Record overhead vs live detection, and offline shard scaling. The
   point of recording is that it is cheaper than detecting: the recorder
   does one buffer append per event, while a live detector maintains
   order structures and an access history. The deferred work is then
   embarrassingly parallel offline. *)
let eventlog ~scale ~repeats =
  let module Serial_exec = Sfr_runtime.Serial_exec in
  let module Events = Sfr_runtime.Events in
  let best f =
    let ts =
      List.init (max 1 repeats) (fun _ ->
          let _, dt = Sfr_support.Stats.time f in
          dt)
    in
    List.fold_left Float.min Float.infinity ts
  in
  Printf.printf
    "Event-log record/replay (scale %s, best of %d, %d core(s) available):\n"
    (Format.asprintf "%a" Workload.pp_scale scale)
    (max 1 repeats)
    (Domain.recommended_domain_count ());
  (* shard checking is compute-bound: more shards than cores cannot speed
     up wall-clock, it only measures the coordination overhead *)
  Printf.printf "  %-6s %12s %12s %12s %10s %10s\n" "bench" "null (s)"
    "record (s)" "live (s)" "rec ovh" "live ovh";
  let logs =
    List.filter_map
      (fun name ->
        match Sfr_workloads.Registry.find name with
        | None -> None
        | Some w ->
            let inst () = w.Workload.instantiate ~inject_race:false scale in
            let t_null =
              best (fun () ->
                  let i = inst () in
                  Serial_exec.run Events.null ~root:Events.Unit_state
                    i.Workload.program
                  |> fst)
            in
            let path = Filename.temp_file ("sfr_" ^ name) ".sflog" in
            let t_rec =
              best (fun () ->
                  let i = inst () in
                  let rec_, cb, root = Sfr_eventlog.Recorder.create ~path () in
                  let () = Serial_exec.run cb ~root i.Workload.program |> fst in
                  ignore (Sfr_eventlog.Recorder.close rec_))
            in
            let t_live =
              best (fun () ->
                  let i = inst () in
                  let det = Sfr_detect.Sf_order.make () in
                  Serial_exec.run det.Sfr_detect.Detector.callbacks
                    ~root:det.Sfr_detect.Detector.root i.Workload.program
                  |> fst)
            in
            Printf.printf "  %-6s %12.4f %12.4f %12.4f %9.2fx %9.2fx%s\n%!"
              name t_null t_rec t_live (t_rec /. t_null) (t_live /. t_null)
              (if t_rec < t_live then "" else "  (record NOT cheaper!)");
            Some (name, path))
      [ "mm"; "sw" ]
  in
  print_endline "  offline shard scaling (structural pass + sharded checks):";
  List.iter
    (fun (name, path) ->
      let t1 = ref Float.infinity in
      List.iter
        (fun shards ->
          let dt =
            best (fun () ->
                let open Sfr_eventlog.Stream_replay in
                match (run_file (Sharded shards) path).status with
                | Complete -> ()
                | s -> failwith (status_to_string s))
          in
          if shards = 1 then t1 := dt;
          Printf.printf "  %-6s %2d shard(s): %8.4f s  (%.2fx vs 1)\n%!"
            name shards dt (!t1 /. dt))
        [ 1; 2; 4; 8 ];
      Sys.remove path)
    logs

(* ---------------------------------------------------------------- *)
(* serve ingest throughput                                            *)
(* ---------------------------------------------------------------- *)

(* Events/second through the streaming ingest server as concurrent
   client sessions scale. Loopback transport (no sockets): each client
   domain drives its own connection, and with pool_domains = 0 the
   detection work runs on the calling client's domain — so N clients
   measure N concurrent end-to-end framed-ingest + detection pipelines
   through one shared server (per-connection locks, shared budget). *)
let serve_bench ~scale ~repeats ~clients_axis =
  let module Server = Sfr_serve.Server in
  let module Session = Sfr_serve.Session in
  let module Loopback = Sfr_serve.Loopback in
  let module Serial_exec = Sfr_runtime.Serial_exec in
  let w =
    match Sfr_workloads.Registry.find "mm" with
    | Some w -> w
    | None -> failwith "mm workload missing"
  in
  let inst = w.Workload.instantiate ~inject_race:false scale in
  let path = Filename.temp_file "sfr_serve" ".sflog" in
  let rec_, cb, root = Sfr_eventlog.Recorder.create ~path () in
  let () = Serial_exec.run cb ~root inst.Workload.program |> fst in
  let summary = Sfr_eventlog.Recorder.close rec_ in
  let image =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        really_input_string ic (in_channel_length ic) |> Bytes.of_string)
  in
  Sys.remove path;
  let events = summary.Sfr_eventlog.Recorder.events in
  let bytes = Bytes.length image in
  Printf.printf
    "Serve ingest throughput (scale %s, log %d bytes / %d events, best of \
     %d, %d core(s)):\n"
    (Format.asprintf "%a" Workload.pp_scale scale)
    bytes events (max 1 repeats)
    (Domain.recommended_domain_count ());
  Printf.printf "  %8s %10s %14s %12s\n" "clients" "time (s)" "events/s"
    "MB/s";
  let best f =
    let ts =
      List.init (max 1 repeats) (fun _ ->
          let _, dt = Sfr_support.Stats.time f in
          dt)
    in
    List.fold_left Float.min Float.infinity ts
  in
  List.iter
    (fun clients ->
      let dt =
        best (fun () ->
            let server =
              Server.create
                {
                  Server.session = Session.default_config;
                  global_budget = 64 * 1024 * 1024;
                  overload = Server.Shed;
                  pool_domains = 0;
                  defer_ingest = false;
                }
            in
            let doms =
              List.init clients (fun _ ->
                  Domain.spawn (fun () ->
                      let c = Loopback.connect server in
                      Loopback.run_log c image))
            in
            List.iter Domain.join doms;
            let outcomes = Server.outcomes server in
            Server.shutdown server;
            if List.length outcomes <> clients then
              failwith
                (Printf.sprintf "serve bench: %d outcomes for %d clients"
                   (List.length outcomes) clients))
      in
      let total_events = float_of_int (events * clients) in
      let total_mb =
        float_of_int (bytes * clients) /. (1024.0 *. 1024.0)
      in
      Printf.printf "  %8d %10.4f %14.0f %12.2f\n%!" clients dt
        (total_events /. dt) (total_mb /. dt))
    clients_axis;
  (* A/B the observability surface itself: the same single-client run
     with every serve sink disarmed vs armed (profiling + tracing +
     audit). The disarmed column is the number the <5% regression gate
     watches; the armed delta prices turning everything on. *)
  let one_client () =
    let server =
      Server.create
        {
          Server.session = Session.default_config;
          global_budget = 64 * 1024 * 1024;
          overload = Server.Shed;
          pool_domains = 0;
          defer_ingest = false;
        }
    in
    let c = Loopback.connect server in
    Loopback.run_log c image;
    let outcomes = Server.outcomes server in
    Server.shutdown server;
    if List.length outcomes <> 1 then failwith "serve bench: A/B outcome lost"
  in
  let disarmed = best one_client in
  let audit_path = Filename.temp_file "sfr_serve_ab" ".audit.jsonl" in
  Sfr_obs.Prof.enable ();
  Sfr_obs.Trace_event.start ();
  Sfr_serve.Audit.open_sink ~path:audit_path ();
  let armed = best one_client in
  Sfr_serve.Audit.close_sink ();
  Sfr_obs.Trace_event.stop ();
  Sfr_obs.Trace_event.clear ();
  Sfr_obs.Prof.disable ();
  Sys.remove audit_path;
  Printf.printf
    "  obs A/B (1 client): disarmed %.4fs, armed %.4fs (%+.1f%%; armed = \
     prof + trace + audit)\n%!"
    disarmed armed
    ((armed -. disarmed) /. disarmed *. 100.0)

(* ---------------------------------------------------------------- *)
(* chaos soak                                                         *)
(* ---------------------------------------------------------------- *)

(* Differential soak across the detector matrix: every detector, with and
   without synthetic faults, against the serial oracle. Exits nonzero on
   any mismatch, so it can gate CI the way the figures gate the paper. *)
let soak ~seeds ~workers =
  let module Chaos = Sfr_chaos.Chaos in
  let module Runner = Sfr_chaos_driver.Chaos_runner in
  Printf.printf "Chaos soak: %d seeds per cell, %d workers\n" seeds workers;
  (* the detector matrix is the registry: a newly registered backend is
     soaked (and differentially checked) without touching this file *)
  let detectors =
    List.map
      (fun (e : Sfr_detect.Registry.entry) ->
        (e.Sfr_detect.Registry.name, e.Sfr_detect.Registry.make))
      (Sfr_detect.Registry.all ())
  in
  let failed = ref false in
  List.iter
    (fun (name, make) ->
      List.iter
        (fun fault_rate ->
          let chaos =
            if fault_rate > 0.0 then
              { Chaos.default_config with Chaos.fault_rate }
            else Chaos.default_config
          in
          let cfg =
            {
              Runner.default_config with
              Runner.seeds;
              workers;
              chaos = Some chaos;
              shrink = true;
            }
          in
          let r = Runner.run cfg ~make in
          Printf.printf
            "  %-14s fault %.2f: %3d matched, %3d faults surfaced, %d mismatches\n%!"
            name fault_rate r.Runner.matched r.Runner.faults_surfaced
            (List.length r.Runner.mismatches);
          List.iter
            (fun m -> Format.printf "    MISMATCH %a@." Runner.pp_mismatch m)
            r.Runner.mismatches;
          if r.Runner.mismatches <> [] then failed := true)
        [ 0.0; 0.02 ])
    detectors;
  (* scale lane: the vc-order oracle is O(n·width) instead of the naive
     O(n²), so the same differential runs at 10x the DAG size *)
  let cfg =
    {
      Runner.default_config with
      Runner.seeds;
      workers;
      ops = Runner.default_config.Runner.ops * 10;
      shrink = true;
      oracle =
        Runner.Oracle_detector (fun () -> Sfr_detect.Vc_order.make ());
    }
  in
  let r = Runner.run cfg ~make:(fun () -> Sfr_detect.Sf_order.make ()) in
  Printf.printf
    "  %-14s vc-oracle @10x ops: %3d matched, %3d faults surfaced, %d \
     mismatches\n%!"
    "sf-order" r.Runner.matched r.Runner.faults_surfaced
    (List.length r.Runner.mismatches);
  List.iter
    (fun m -> Format.printf "    MISMATCH %a@." Runner.pp_mismatch m)
    r.Runner.mismatches;
  if r.Runner.mismatches <> [] then failed := true;
  if !failed then begin
    prerr_endline "chaos soak FAILED";
    exit 1
  end

(* ---------------------------------------------------------------- *)
(* argument handling                                                  *)
(* ---------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: main.exe [fig3|fig4|fig5|sweep|ablation-locks|ablation-sets|\n\
    \                 ablation-readers|ablation-history|scaling|profile|\n\
    \                 prof-overhead|micro|eventlog|serve|soak|all]\n\
    \                [--scale tiny|small|default|large|paper] [--repeats N]\n\
    \                [--workers P] [--seeds N] [--domains N,N,...]\n\
    \                [--trace-out FILE] [--telemetry-out FILE] [--sample-ms N]\n\
    \                [--profile-out FILE]\n\
    \                [--scaling-out FILE] [--no-metrics]\n\
    \       main.exe perfdiff OLD.json NEW.json [--report-only]";
  exit 2

let () =
  let scale = ref Workload.Default in
  let repeats = ref 2 in
  let workers = ref 20 in
  let seeds = ref 50 in
  let command = ref "all" in
  let command_seen = ref false in
  let positional = ref [] in
  let report_only = ref false in
  let trace_out = ref None in
  let telemetry_out = ref None in
  let sample_ms = ref Sfr_obs.Telemetry.default_sample_ms in
  let profile_out = ref "BENCH_profile.json" in
  let scaling_out = ref "BENCH_scaling.json" in
  let domains = ref [ 1; 2; 4; 8 ] in
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
    | "--seeds" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n > 0 -> seeds := n
        | Some _ | None -> usage ());
        parse rest
    | "--trace-out" :: f :: rest ->
        trace_out := Some f;
        parse rest
    | "--telemetry-out" :: f :: rest ->
        telemetry_out := Some f;
        parse rest
    | "--sample-ms" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n >= 1 -> sample_ms := n
        | Some _ | None -> usage ());
        parse rest
    | "--no-metrics" :: rest ->
        Sfr_obs.Metrics.disable ();
        parse rest
    | "--profile-out" :: f :: rest ->
        profile_out := f;
        parse rest
    | "--scaling-out" :: f :: rest ->
        scaling_out := f;
        parse rest
    | "--domains" :: spec :: rest ->
        (match
           String.split_on_char ',' spec
           |> List.map (fun s ->
                  match int_of_string_opt (String.trim s) with
                  | Some n when n > 0 -> n
                  | Some _ | None -> usage ())
         with
        | [] -> usage ()
        | ds -> domains := ds);
        parse rest
    | "--report-only" :: rest ->
        report_only := true;
        parse rest
    | cmd :: rest when cmd <> "" && cmd.[0] <> '-' ->
        if !command_seen then positional := !positional @ [ cmd ]
        else begin
          command := cmd;
          command_seen := true
        end;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let scale = !scale and repeats = !repeats and workers = !workers in
  let seeds = !seeds in
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
    | "profile" -> (
        try
          Figures.profile ~scale ~repeats ~out:!profile_out
        with Sys_error msg ->
          Printf.eprintf "cannot write profile: %s\n" msg;
          exit 2)
    | "scaling" -> (
        try
          Figures.scaling ~scale ~repeats ~domains:!domains
            ~out:!scaling_out
        with Sys_error msg ->
          Printf.eprintf "cannot write scaling results: %s\n" msg;
          exit 2)
    | "perfdiff" -> (
        match !positional with
        | [ old_path; new_path ] ->
            perfdiff ~report_only:!report_only old_path new_path
        | _ ->
            prerr_endline "perfdiff needs exactly two files: OLD.json NEW.json";
            usage ())
    | "prof-overhead" -> prof_overhead ()
    | "micro" -> micro ()
    | "eventlog" -> eventlog ~scale ~repeats
    | "serve" -> serve_bench ~scale ~repeats ~clients_axis:!domains
    | "soak" -> soak ~seeds ~workers:(min workers 8)
    | "all" ->
        List.iter
          (fun c ->
            run c;
            print_newline ())
          [ "fig3"; "fig4"; "fig5"; "motivation"; "complexity"; "sweep";
            "ablation-locks"; "ablation-sets"; "ablation-readers";
            "ablation-history"; "eventlog"; "micro"; "prof-overhead" ]
    | _ -> usage ()
  in
  let sinks =
    {
      Sfr_obs.Telemetry.trace_out = !trace_out;
      telemetry_out = !telemetry_out;
      sample_ms = !sample_ms;
    }
  in
  (* --telemetry-out (or --trace-out) adds a utilization table *)
  Sfr_obs.Telemetry.with_sinks ~probe:Sfr_runtime.Par_exec.probe_metrics
    ~on_stop:(fun () ->
      print_newline ();
      Printf.printf "Utilization over time (%d samples, %d ms period):\n"
        (Sfr_obs.Telemetry.sample_count ())
        !sample_ms;
      Format.printf "%t@?" Sfr_obs.Telemetry.pp_timeline)
    sinks
    (fun () -> run !command)
