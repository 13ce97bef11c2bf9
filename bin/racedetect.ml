(* racedetect — run a benchmark or a random synthetic program under a
   chosen detector and executor, and report determinacy races.

     racedetect list
     racedetect detectors [--names]       (the detector registry + flags)
     racedetect run --workload mm --detector sf-order [--scale small]
                    [--executor serial|parallel] [--workers N]
                    [--inject-race] [--no-verify] [--check-discipline]
                    [--stats] [--trace-out FILE] [--flight-dump FILE]
     racedetect synth --seed 42 [--ops 200] [--depth 5] [--locs 16]
                      [--detector sf-order] [--oracle] [--no-verify] [--stats]
     racedetect record --workload mm -o mm.sflog          (binary event log)
     racedetect record --workload mm --format sfdag -o mm.trace
     racedetect replay mm.sflog [--detector sf-order] [--shards N]
     racedetect analyze mm.trace
     racedetect metrics-dump [--workload mm] [--check] [-o FILE]
     racedetect telemetry-lint t.jsonl [--min-samples N]
     racedetect serve --socket /tmp/rd.sock [--budget BYTES]
                      [--overload shed|park|block] [--pool N] [--shards N]
                      [--deadline-ms N] [--idle-ms N] [--max-sessions N]
     racedetect stress-client --socket /tmp/rd.sock --workload mm
                      --sessions 4 [--torn 1] [--over-budget 1] [--idle 1]

   Exit codes are uniform across subcommands (see README "Exit codes"):
   0 = clean, 1 = races detected / verification or expectation failed
   (suppress with --no-verify where it applies), 2 = usage, I/O or
   malformed-input errors. *)

module Workload = Sfr_workloads.Workload
module Registry = Sfr_workloads.Registry
module Synthetic = Sfr_workloads.Synthetic
module Detector = Sfr_detect.Detector
module Detectors = Sfr_detect.Registry
module Race = Sfr_detect.Race
module Sf_order = Sfr_detect.Sf_order
module Naive_detector = Sfr_detect.Naive_detector
module Serial_exec = Sfr_runtime.Serial_exec
module Par_exec = Sfr_runtime.Par_exec
module Trace = Sfr_runtime.Trace
module Discipline = Sfr_detect.Discipline
module Events = Sfr_runtime.Events
module Mem_meter = Sfr_support.Mem_meter
module Stats = Sfr_support.Stats
module Stream_replay = Sfr_eventlog.Stream_replay

open Cmdliner

(* Detector names resolve through the process-wide registry. "help"
   prints the listing and exits 0; an unknown name prints it and exits 2
   — every subcommand taking -d shares this behavior. *)
let resolve_detector s =
  if s = "help" || s = "list" then begin
    print_string (Detectors.listing ());
    exit 0
  end
  else
    match Detectors.find s with
    | Some e -> e
    | None ->
        Printf.eprintf "%s" (Detectors.unknown s);
        exit 2

(* -d/--detector, shared by every subcommand that runs a detector;
   [extra_doc] appends a subcommand-specific sentence. *)
let detector_term ?(extra_doc = "") () =
  Arg.(
    value
    & opt string "sf-order"
    & info [ "d"; "detector" ] ~docv:"NAME"
        ~doc:
          ("Detector name (see $(b,racedetect detectors)); $(b,help) prints \
            the registry listing." ^ extra_doc))

(* --trace-out / --telemetry-out / --sample-ms, shared by the entry
   points that arm observability sinks (see Telemetry.with_sinks). *)
let sinks_term ~trace_doc ~telemetry_doc =
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE" ~doc:trace_doc)
  in
  let telemetry_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry-out" ] ~docv:"FILE" ~doc:telemetry_doc)
  in
  let positive =
    Arg.conv
      ( (fun s ->
          match int_of_string_opt s with
          | Some n when n >= 1 -> Ok n
          | Some _ | None ->
              Error (`Msg (Printf.sprintf "%S is not an integer >= 1" s))),
        Format.pp_print_int )
  in
  let sample_ms =
    Arg.(
      value
      & opt positive Sfr_obs.Telemetry.default_sample_ms
      & info [ "sample-ms" ] ~docv:"MS"
          ~doc:"Telemetry sampling period in milliseconds (at least 1).")
  in
  Term.(
    const (fun trace_out telemetry_out sample_ms ->
        { Sfr_obs.Telemetry.trace_out; telemetry_out; sample_ms })
    $ trace_out $ telemetry_out $ sample_ms)

(* A registry entry may cap the workload scale it is practical at. *)
let check_scale_ceiling (e : Detectors.entry) scale =
  match e.Detectors.caps.Detectors.scale_ceiling with
  | None -> ()
  | Some c -> (
      match Workload.scale_of_string c with
      | Some ceiling when scale <= ceiling -> ()
      | Some _ ->
          Printf.eprintf
            "detector %s is capped at scale %s (registry scale ceiling)\n%s"
            e.Detectors.name c (Detectors.listing ());
          exit 2
      | None -> ())

let scale_conv =
  Arg.conv
    ( (fun s ->
        match Workload.scale_of_string s with
        | Some sc -> Ok sc
        | None -> Error (`Msg (Printf.sprintf "unknown scale %S" s))),
      fun ppf s -> Workload.pp_scale ppf s )

(* Race-report rendering shared by live detection and offline replay, so
   their outputs diff cleanly; returns the racy-location count. *)
let print_races reports =
  if reports = [] then print_endline "no determinacy races detected."
  else begin
    Printf.printf "RACES DETECTED at %d location(s):\n" (List.length reports);
    List.iter
      (fun (r : Race.report) ->
        Printf.printf "  loc %d: %s between future %d and future %d (%d occurrence(s))\n"
          r.Race.loc
          (Format.asprintf "%a" Race.pp_kind r.Race.kind)
          r.Race.prev_future r.Race.cur_future r.Race.count)
      reports
  end;
  List.length reports

(* Prints the run summary and returns the number of racy locations, so
   callers can turn "races found" into the exit status. *)
let print_detector_report ?(stats = false) det dt =
  Printf.printf "executed in %.3f s\n" dt;
  Printf.printf "reachability queries: %d\n" (det.Detector.queries ());
  Printf.printf "reachability memory (live): %s\n"
    (Format.asprintf "%a" Mem_meter.pp_bytes (det.Detector.reach_words ()));
  Printf.printf "access-history memory:      %s\n"
    (Format.asprintf "%a" Mem_meter.pp_bytes (det.Detector.history_words ()));
  Printf.printf "max readers per location:   %d\n" (det.Detector.max_readers ());
  let racy = print_races (Race.reports det.Detector.races) in
  if stats then begin
    print_endline "-- metrics ----------------------------------------";
    (match det.Detector.metrics () with
    | [] -> print_endline "(no metrics recorded; is Sfr_obs.Metrics disabled?)"
    | entries ->
        print_string (Format.asprintf "%a" Sfr_obs.Metrics.pp_table entries));
    match Sfr_obs.Metrics.histogram_summaries () with
    | [] -> ()
    | hs ->
        print_endline "-- latency percentiles (bucket upper bounds) ------";
        print_string (Format.asprintf "%a" Sfr_obs.Metrics.pp_summaries hs)
  end;
  racy

(* -- list ------------------------------------------------------------- *)

let list_cmd =
  let doc = "List the available benchmarks." in
  let run () =
    List.iter
      (fun (w : Workload.t) ->
        Printf.printf "%-8s %s\n" w.Workload.name w.Workload.description)
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* -- run --------------------------------------------------------------- *)

let run_cmd =
  let doc = "Run a benchmark under a race detector." in
  let workload =
    Arg.(
      required
      & opt (some string) None
      & info [ "w"; "workload" ] ~docv:"NAME" ~doc:"Benchmark name (see list).")
  in
  let detector = detector_term () in
  let scale =
    Arg.(
      value
      & opt scale_conv Workload.Small
      & info [ "s"; "scale" ] ~doc:"Scale: tiny, small, default, large, paper.")
  in
  let executor =
    Arg.(
      value
      & opt (enum [ ("serial", `Serial); ("parallel", `Parallel) ]) `Serial
      & info [ "e"; "executor" ] ~doc:"Executor: serial or parallel.")
  in
  let workers =
    Arg.(value & opt int 2 & info [ "j"; "workers" ] ~doc:"Parallel workers.")
  in
  let inject =
    Arg.(value & flag & info [ "inject-race" ] ~doc:"Plant a determinacy race.")
  in
  let no_verify =
    Arg.(value & flag & info [ "no-verify" ] ~doc:"Skip output verification.")
  in
  let check_discipline =
    Arg.(
      value & flag
      & info [ "check-discipline" ]
          ~doc:"Also verify the structured-futures discipline on the fly.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Print the detector's metric counters after the run.")
  in
  let sinks =
    sinks_term
      ~trace_doc:"Write a chrome://tracing JSON of the execution to $(docv)."
      ~telemetry_doc:
        "Sample continuous telemetry (metric deltas, scheduler probes, GC) \
         during the run and stream it as JSONL to $(docv). See \
         $(b,telemetry-lint) for validation."
  in
  let flight_dump =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight-dump" ] ~docv:"FILE"
          ~doc:
            "After the run, dump the flight recorder's recent-event window \
             as a chrome://tracing JSON to $(docv). The recorder is always \
             on; this asks for the window of a healthy run (crashes dump it \
             automatically).")
  in
  let run workload detector scale executor workers inject no_verify
      check_discipline stats sinks flight_dump =
    let entry = resolve_detector detector in
    match Registry.find workload with
    | None ->
        Printf.eprintf "unknown workload %S (try: racedetect list)\n" workload;
        exit 2
    | Some w ->
        check_scale_ceiling entry scale;
        let inst = w.Workload.instantiate ~inject_race:inject scale in
        let det = entry.Detectors.make () in
        if executor = `Parallel && not det.Detector.supports_parallel then begin
          Printf.eprintf
            "%s is a sequential detector and cannot run under the parallel \
             executor\n%s"
            det.Detector.name (Detectors.listing ());
          exit 2
        end;
        Printf.printf "%s @ %s under %s (%s)\n" w.Workload.name
          (Format.asprintf "%a" Workload.pp_scale scale)
          entry.Detectors.name
          (match executor with
          | `Serial -> "serial execution"
          | `Parallel -> Printf.sprintf "parallel execution, %d workers" workers);
        let disc = if check_discipline then Some (Discipline.make ()) else None in
        let callbacks, root =
          match disc with
          | None -> (det.Detector.callbacks, det.Detector.root)
          | Some d ->
              ( Events.pair d.Discipline.callbacks det.Detector.callbacks,
                Events.Pair_state (d.Discipline.root, det.Detector.root) )
        in
        (* latency histograms only fill while profiling is on; --stats is
           the request to see them *)
        if stats then Sfr_obs.Prof.enable ();
        let (), dt =
          Sfr_obs.Telemetry.with_sinks ~probe:Par_exec.probe_metrics sinks
            (fun () ->
              Stats.time (fun () ->
                  match executor with
                  | `Serial ->
                      Serial_exec.run callbacks ~root inst.Workload.program
                      |> fst
                  | `Parallel ->
                      Par_exec.run ~workers callbacks ~root
                        inst.Workload.program
                      |> fst))
        in
        (match flight_dump with
        | Some f -> (
            match Sfr_obs.Flight.write_chrome f with
            | () ->
                Printf.printf
                  "wrote flight window (%d events) to %s (load in \
                   chrome://tracing)\n"
                  (List.length (Sfr_obs.Flight.entries ()))
                  f
            | exception Sys_error msg ->
                Printf.eprintf "cannot write flight dump: %s\n" msg;
                exit 2)
        | None -> ());
        let racy = print_detector_report ~stats det dt in
        (match disc with
        | Some d -> (
            match d.Discipline.violations () with
            | [] -> print_endline "structured-futures discipline verified."
            | vs ->
                List.iter
                  (fun v ->
                    Printf.printf "DISCIPLINE VIOLATION: %s\n" v.Discipline.message)
                  vs)
        | None -> ());
        if (not no_verify) && not inject then
          if inst.Workload.verify () then print_endline "output verified."
          else begin
            print_endline "OUTPUT VERIFICATION FAILED";
            exit 1
          end;
        if inject && Race.reports det.Detector.races = [] then begin
          print_endline "expected the injected race to be detected!";
          exit 1
        end;
        (* Race-free runs exit 0; detected races exit 1 (unless the caller
           opted out with --no-verify, or planted them with --inject-race). *)
        if racy > 0 && (not no_verify) && not inject then exit 1
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ workload $ detector $ scale $ executor $ workers $ inject
      $ no_verify $ check_discipline $ stats $ sinks $ flight_dump)

(* -- metrics-dump / telemetry-lint -------------------------------------- *)

let metrics_dump_cmd =
  let doc =
    "Print the metric registry in Prometheus text exposition format \
     (optionally after exercising a workload to populate it)."
  in
  let workload =
    Arg.(
      value
      & opt (some string) None
      & info [ "w"; "workload" ] ~docv:"NAME"
          ~doc:
            "Run this benchmark (serially, under sf-order) first so the \
             exposition reflects a real run instead of a cold registry.")
  in
  let scale =
    Arg.(
      value
      & opt scale_conv Workload.Small
      & info [ "s"; "scale" ] ~doc:"Scale: tiny, small, default, large, paper.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Validate the exposition against the text-format grammar and \
             report the sample-line count on stderr (exit 2 on violation).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write to $(docv) instead of stdout.")
  in
  let run workload scale check out =
    (match workload with
    | None -> ()
    | Some name -> (
        match Registry.find name with
        | None ->
            Printf.eprintf "unknown workload %S (try: racedetect list)\n" name;
            exit 2
        | Some w ->
            let inst = w.Workload.instantiate ~inject_race:false scale in
            (* profiling on, so the latency histogram families render
               with real buckets instead of empty placeholders *)
            Sfr_obs.Prof.enable ();
            let det = Sf_order.make () in
            Serial_exec.run det.Detector.callbacks ~root:det.Detector.root
              inst.Workload.program
            |> ignore));
    let gauges = Par_exec.probe_metrics () in
    let text = Sfr_obs.Telemetry.render_prometheus ~gauges () in
    if check then begin
      match Sfr_obs.Telemetry.check_prometheus text with
      | Ok n -> Printf.eprintf "exposition OK: %d sample line(s)\n" n
      | Error e ->
          Printf.eprintf "exposition INVALID: %s\n" e;
          exit 2
    end;
    match out with
    | None -> print_string text
    | Some f -> (
        match
          let oc = open_out f in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () -> output_string oc text)
        with
        | () -> Printf.eprintf "wrote exposition to %s\n" f
        | exception Sys_error msg ->
            Printf.eprintf "cannot write %s: %s\n" f msg;
            exit 2)
  in
  Cmd.v (Cmd.info "metrics-dump" ~doc)
    Term.(const run $ workload $ scale $ check $ out)

let telemetry_lint_cmd =
  let doc =
    "Validate a JSONL telemetry file written by $(b,run --telemetry-out) or \
     $(b,serve --telemetry-out): header, per-line JSON, required sample \
     fields. Exit 2 on malformed input, 1 when fewer than --min-samples \
     samples are present."
  in
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Telemetry JSONL file.")
  in
  let min_samples =
    Arg.(
      value & opt int 1
      & info [ "min-samples" ] ~docv:"N"
          ~doc:"Require at least $(docv) samples.")
  in
  let run file min_samples =
    let text =
      try
        let ic = open_in_bin file in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with Sys_error msg ->
        Printf.eprintf "%s: %s\n" file msg;
        exit 2
    in
    match Sfr_obs.Telemetry.lint_jsonl text with
    | Error e ->
        Printf.eprintf "%s: %s\n" file e;
        exit 2
    | Ok n ->
        Printf.printf "%s: %d sample(s), schema %d\n" file n
          Sfr_obs.Telemetry.schema_version;
        if n < min_samples then begin
          Printf.eprintf "expected at least %d sample(s), found %d\n"
            min_samples n;
          exit 1
        end
  in
  Cmd.v (Cmd.info "telemetry-lint" ~doc) Term.(const run $ file $ min_samples)

(* -- record / replay / analyze ----------------------------------------- *)

let record_cmd =
  let doc =
    "Run a benchmark instrumented for recording only and save the execution: \
     a compact binary event log (sflog, for $(b,replay)) or a textual dag + \
     access dump (sfdag, for $(b,analyze))."
  in
  let workload =
    Arg.(
      required
      & opt (some string) None
      & info [ "w"; "workload" ] ~docv:"NAME" ~doc:"Benchmark name (see list).")
  in
  let scale =
    Arg.(
      value
      & opt scale_conv Workload.Small
      & info [ "s"; "scale" ] ~doc:"Scale: tiny, small, default, large, paper.")
  in
  let inject =
    Arg.(value & flag & info [ "inject-race" ] ~doc:"Plant a determinacy race.")
  in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("sflog", `Sflog); ("sfdag", `Sfdag) ]) `Sflog
      & info [ "format" ]
          ~doc:"Output format: sflog (binary event log) or sfdag (dag text).")
  in
  let executor =
    Arg.(
      value
      & opt (enum [ ("serial", `Serial); ("parallel", `Parallel) ]) `Serial
      & info [ "e"; "executor" ]
          ~doc:
            "Executor: serial or parallel (sflog only; parallel logs replay \
             under any order-insensitive detector).")
  in
  let workers =
    Arg.(value & opt int 2 & info [ "j"; "workers" ] ~doc:"Parallel workers.")
  in
  let run workload scale inject out format executor workers =
    match Registry.find workload with
    | None ->
        Printf.eprintf "unknown workload %S (try: racedetect list)\n" workload;
        exit 2
    | Some w -> (
        let inst = w.Workload.instantiate ~inject_race:inject scale in
        match format with
        | `Sflog ->
            let rec_, cb, root =
              try Sfr_eventlog.Recorder.create ~path:out ()
              with Sys_error msg ->
                Printf.eprintf "cannot open %s: %s\n" out msg;
                exit 2
            in
            let (), dt =
              Stats.time (fun () ->
                  match executor with
                  | `Serial -> Serial_exec.run cb ~root inst.Workload.program |> fst
                  | `Parallel ->
                      Par_exec.run ~workers cb ~root inst.Workload.program |> fst)
            in
            let s = Sfr_eventlog.Recorder.close rec_ in
            Printf.printf
              "recorded %d events (%d strands, %d worker stream(s)) to %s\n"
              s.Sfr_eventlog.Recorder.events s.Sfr_eventlog.Recorder.states
              s.Sfr_eventlog.Recorder.workers out;
            Printf.printf "%d bytes in %d chunk(s), %.1f bytes/event\n"
              s.Sfr_eventlog.Recorder.bytes s.Sfr_eventlog.Recorder.flushes
              (float_of_int s.Sfr_eventlog.Recorder.bytes
              /. float_of_int (max 1 s.Sfr_eventlog.Recorder.events));
            Printf.eprintf "recorded in %.3f s (%.0f events/s)\n" dt
              (float_of_int s.Sfr_eventlog.Recorder.events /. Float.max 1e-9 dt)
        | `Sfdag ->
            if executor = `Parallel then begin
              Printf.eprintf
                "sfdag recording is serial-only (the dag dump is \
                 schedule-independent anyway)\n";
              exit 2
            end;
            let trace, cb, root = Trace.make ~log_accesses:true () in
            let (), _ = Serial_exec.run cb ~root inst.Workload.program in
            let accesses =
              List.map
                (fun (a : Trace.access) ->
                  {
                    Sfr_dag.Dag_io.node = a.Trace.node;
                    loc = a.Trace.loc;
                    is_write = a.Trace.is_write;
                  })
                (Trace.accesses trace)
            in
            Sfr_dag.Dag_io.save_file out ~accesses (Trace.dag trace);
            Printf.printf "recorded %d nodes, %d futures, %d accesses to %s\n"
              (Sfr_dag.Dag.n_nodes (Trace.dag trace))
              (Sfr_dag.Dag.n_futures (Trace.dag trace))
              (List.length accesses) out)
  in
  Cmd.v (Cmd.info "record" ~doc)
    Term.(
      const run $ workload $ scale $ inject $ out $ format $ executor $ workers)

let replay_cmd =
  let doc =
    "Detect races offline by replaying a recorded event log — optionally \
     sharded by location across parallel domains. Exits 1 when races are \
     reported, like $(b,run)."
  in
  let file =
    Arg.(
      required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Event log.")
  in
  let detector =
    detector_term
      ~extra_doc:
        " Serial-only detectors accept single-worker logs; --shards \
         requires a shardable one."
      ()
  in
  let shards =
    Arg.(
      value
      & opt (some int) None
      & info [ "shards" ] ~docv:"N"
          ~doc:
            (Printf.sprintf
               "Replay structure once, then check accesses sharded by \
                location hash on $(docv) domains (SF-Order reachability), at \
                most %d. Output is identical for every shard count."
               Stream_replay.max_shards))
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Print metric counters and shard sizes after the replay.")
  in
  let no_verify =
    Arg.(
      value & flag
      & info [ "no-verify" ] ~doc:"Exit 0 even when races are reported.")
  in
  let run file detector shards stats no_verify =
    let entry = resolve_detector detector in
    let mode =
      match shards with
      | None -> Stream_replay.Detector (entry.Detectors.make ())
      | Some n when n < 1 || n > Stream_replay.max_shards ->
          Printf.eprintf "--shards must be in 1..%d\n" Stream_replay.max_shards;
          exit 2
      | Some n ->
          if not entry.Detectors.caps.Detectors.shardable then begin
            Printf.eprintf
              "detector %s does not support sharded replay (--shards %d); \
               its capabilities are below\n%s"
              entry.Detectors.name n (Detectors.listing ());
            exit 2
          end;
          Stream_replay.Sharded n
    in
    let v, dt = Stats.time (fun () -> Stream_replay.run_file mode file) in
    if v.Stream_replay.status <> Stream_replay.Complete then begin
      Printf.eprintf "%s: %s\n" file
        (Stream_replay.status_to_string v.Stream_replay.status);
      exit 2
    end;
    (* sharded stdout is shard-count-independent (diffable across N);
       timing and the shard split go to stderr / --stats *)
    (match shards with
    | Some _ ->
        Printf.printf "replayed %d structural events, %d accesses\n"
          (v.Stream_replay.events_applied - v.Stream_replay.accesses)
          v.Stream_replay.accesses
    | None ->
        Printf.printf "replayed %d events under %s\n"
          v.Stream_replay.events_applied entry.Detectors.name);
    Printf.printf "reachability queries: %d\n" v.Stream_replay.queries;
    let racy = print_races v.Stream_replay.reports in
    Printf.eprintf "replayed in %.3f s%s\n" dt
      (match shards with
      | Some n -> Printf.sprintf " on %d shard(s)" n
      | None -> "");
    if stats && shards <> None then begin
      print_endline "-- shards -----------------------------------------";
      Array.iteri
        (fun i sz -> Printf.printf "shard %d: %d accesses\n" i sz)
        v.Stream_replay.shard_sizes
    end;
    if stats then begin
      print_endline "-- metrics ----------------------------------------";
      print_string
        (Format.asprintf "%a" Sfr_obs.Metrics.pp_table (Sfr_obs.Metrics.snapshot ()))
    end;
    if racy > 0 && not no_verify then exit 1
  in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(const run $ file $ detector $ shards $ stats $ no_verify)

let analyze_cmd =
  let doc = "Offline analysis of a recorded sfdag trace: races, work/span, speedups." in
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Trace file.")
  in
  let no_verify =
    Arg.(
      value & flag
      & info [ "no-verify" ] ~doc:"Exit 0 even when races are found.")
  in
  let run file no_verify =
    let magic = Sfr_eventlog.Log_format.magic in
    let head =
      In_channel.with_open_bin file (fun ic ->
          In_channel.really_input_string ic (String.length magic))
    in
    if head = Some magic then begin
      Printf.eprintf "%s is a binary event log; use: racedetect replay %s\n"
        file file;
      exit 2
    end;
    let dag, accesses =
      match Sfr_dag.Dag_io.load_file_result file with
      | Ok v -> v
      | Error e ->
          Printf.eprintf "%s: %s\n" file (Sfr_dag.Dag_io.parse_error_to_string e);
          exit 2
    in
    let module Dag = Sfr_dag.Dag in
    let module Dag_algo = Sfr_dag.Dag_algo in
    let module Dag_check = Sfr_dag.Dag_check in
    Printf.printf "dag: %d nodes, %d futures\n" (Dag.n_nodes dag) (Dag.n_futures dag);
    (match Dag_check.validate_sf dag with
    | [] -> print_endline "structure: well-formed SF-dag"
    | vs ->
        Printf.printf "structure: %d violation(s)\n" (List.length vs);
        List.iter (fun v -> Printf.printf "  %s\n" v.Dag_check.message) vs);
    let work = Dag_algo.work dag and span = Dag_algo.span dag Dag_algo.Full in
    Printf.printf "work %d, span %d, parallelism %.2f\n" work span
      (float_of_int work /. float_of_int (max 1 span));
    List.iter
      (fun p ->
        Printf.printf "  simulated speedup on %2d workers: %.2fx\n" p
          (Sfr_runtime.Sim_sched.speedup dag ~workers:p))
      [ 2; 4; 8; 16 ];
    let log =
      List.map
        (fun (a : Sfr_dag.Dag_io.access) ->
          { Trace.node = a.Sfr_dag.Dag_io.node; loc = a.loc; is_write = a.is_write })
        accesses
    in
    let v = Naive_detector.analyze dag log in
    Printf.printf "accesses: %d; racy locations: %d (%d racing pairs)\n"
      (List.length accesses)
      (List.length v.Naive_detector.racy_locations)
      v.Naive_detector.races_found;
    (* same convention as run/replay: finding races is exit 1 *)
    if v.Naive_detector.racy_locations <> [] && not no_verify then exit 1
  in
  Cmd.v (Cmd.info "analyze" ~doc) Term.(const run $ file $ no_verify)

(* -- synth ------------------------------------------------------------- *)

let synth_cmd =
  let doc = "Race detect a random structured-futures program." in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Generator seed.") in
  let ops = Arg.(value & opt int 200 & info [ "ops" ] ~doc:"Operation budget.") in
  let depth = Arg.(value & opt int 5 & info [ "depth" ] ~doc:"Nesting depth.") in
  let locs =
    Arg.(value & opt int 16 & info [ "locs" ] ~doc:"Shared locations.")
  in
  let detector = detector_term () in
  let oracle =
    Arg.(
      value & flag
      & info [ "oracle" ]
          ~doc:"Also run the exhaustive ground-truth analysis and compare.")
  in
  let no_verify =
    Arg.(
      value & flag
      & info [ "no-verify" ]
          ~doc:"Exit 0 even when races are detected (synthetic programs \
                are frequently racy by construction).")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Print the detector's metric counters after the run.")
  in
  let run seed ops depth locs detector oracle no_verify stats =
    let entry = resolve_detector detector in
    let t = Synthetic.generate ~seed ~ops ~depth ~locs () in
    let n_ops, futures, gets = Synthetic.stats t in
    Printf.printf "synthetic program: %d ops, %d futures, %d gets\n" n_ops futures gets;
    let inst = Synthetic.instantiate t in
    if stats then Sfr_obs.Prof.enable ();
    let det = entry.Detectors.make () in
    let (), dt =
      Stats.time (fun () ->
          Serial_exec.run det.Detector.callbacks ~root:det.Detector.root
            inst.Synthetic.program
          |> fst)
    in
    let racy = print_detector_report ~stats det dt in
    if oracle then begin
      let inst2 = Synthetic.instantiate t in
      let trace, cb, root = Trace.make ~log_accesses:true () in
      let (), _ = Serial_exec.run cb ~root inst2.Synthetic.program in
      let v = Naive_detector.analyze (Trace.dag trace) (Trace.accesses trace) in
      let norm base locs = List.map (fun l -> l - base) locs in
      let expected = norm inst2.Synthetic.mem_base v.Naive_detector.racy_locations in
      let got = norm inst.Synthetic.mem_base (Detector.racy_locations det) in
      Printf.printf "oracle: %d racy location(s); detector %s the oracle\n"
        (List.length expected)
        (if expected = got then "MATCHES" else "DISAGREES WITH");
      if expected <> got then exit 1
    end;
    if racy > 0 && not no_verify then exit 1
  in
  Cmd.v (Cmd.info "synth" ~doc)
    Term.(
      const run $ seed $ ops $ depth $ locs $ detector $ oracle $ no_verify
      $ stats)

(* -- chaos -------------------------------------------------------------- *)

let chaos_cmd =
  let doc =
    "Differential soak: random programs under seeded fault injection, \
     parallel detector vs serial oracle, shrinking failures."
  in
  let seeds =
    Arg.(value & opt int 50 & info [ "seeds" ] ~doc:"Number of seeds to sweep.")
  in
  let base_seed =
    Arg.(value & opt int 1 & info [ "base-seed" ] ~doc:"First seed.")
  in
  let ops =
    Arg.(value & opt int 120 & info [ "ops" ] ~doc:"Op budget per program.")
  in
  let depth = Arg.(value & opt int 4 & info [ "depth" ] ~doc:"Nesting depth.") in
  let locs = Arg.(value & opt int 6 & info [ "locs" ] ~doc:"Shared locations.") in
  let detector = detector_term () in
  let oracle =
    Arg.(
      value
      & opt string "naive"
      & info [ "oracle" ] ~docv:"NAME"
          ~doc:
            "Ground truth: $(b,naive) (exhaustive offline analysis, tiny \
             scales only) or any oracle-grade registry detector (e.g. \
             $(b,vc-order)) run serially without chaos — cheap enough for \
             10-100x larger --ops.")
  in
  let workers =
    Arg.(
      value & opt int 4
      & info [ "j"; "workers" ] ~doc:"Parallel workers (1 forces serial).")
  in
  let no_chaos =
    Arg.(
      value & flag
      & info [ "no-chaos" ] ~doc:"Disable injection (pure differential sweep).")
  in
  let fault_rate =
    Arg.(
      value & opt float 0.0
      & info [ "fault-rate" ]
          ~doc:
            "Probability of raising a synthetic fault at each eligible chaos \
             point (exercises the exception-safety paths; faulted seeds are \
             counted, not compared).")
  in
  let shrink =
    Arg.(
      value & flag
      & info [ "shrink" ] ~doc:"Delta-debug failures to minimal reproducers.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR" ~doc:"Dump failing programs as sfdag files.")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print chaos metric counters.")
  in
  let run seeds base_seed ops depth locs detector oracle workers no_chaos
      fault_rate shrink out stats =
    let module Chaos = Sfr_chaos.Chaos in
    let module Runner = Sfr_chaos_driver.Chaos_runner in
    let entry = resolve_detector detector in
    let oracle_spec =
      if oracle = "naive" then Runner.Naive
      else begin
        let e = resolve_detector oracle in
        if not e.Detectors.caps.Detectors.oracle_grade then begin
          Printf.eprintf
            "detector %s is not oracle-grade and cannot serve as chaos \
             ground truth\n%s"
            e.Detectors.name (Detectors.listing ());
          exit 2
        end;
        Runner.Oracle_detector e.Detectors.make
      end
    in
    let chaos =
      if no_chaos then None
      else
        Some
          (if fault_rate > 0.0 then
             { Chaos.default_config with Chaos.fault_rate }
           else Chaos.default_config)
    in
    let cfg =
      {
        Runner.seeds;
        base_seed;
        ops;
        depth;
        locs;
        workers;
        chaos;
        shrink;
        out_dir = out;
        oracle = oracle_spec;
      }
    in
    Printf.printf
      "chaos: %d seeds, %d workers, oracle %s, injection %s, fault rate \
       %.3f, shrink %b\n%!"
      seeds workers oracle
      (if no_chaos then "off" else "on")
      fault_rate shrink;
    let report, dt =
      Stats.time (fun () ->
          Runner.run cfg ~make:entry.Detectors.make ~progress:(fun n ->
              if n mod 25 = 0 then Printf.printf "  ...%d/%d seeds\n%!" n seeds))
    in
    Printf.printf
      "swept %d seeds in %.3f s: %d matched, %d faults surfaced, %d faults \
       injected, %d mismatches\n"
      report.Runner.seeds_run dt report.Runner.matched
      report.Runner.faults_surfaced report.Runner.injected
      (List.length report.Runner.mismatches);
    List.iter
      (fun m -> Format.printf "  MISMATCH %a@." Runner.pp_mismatch m)
      report.Runner.mismatches;
    if stats then begin
      print_endline "-- metrics ----------------------------------------";
      print_string
        (Format.asprintf "%a" Sfr_obs.Metrics.pp_table
           (Sfr_obs.Metrics.snapshot ()))
    end;
    if report.Runner.mismatches <> [] then exit 1
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const run $ seeds $ base_seed $ ops $ depth $ locs $ detector $ oracle
      $ workers $ no_chaos $ fault_rate $ shrink $ out $ stats)

(* -- detectors ---------------------------------------------------------- *)

let detectors_cmd =
  let doc =
    "List the registered race-detector backends with their capability \
     flags (parallel/serial, shardable, oracle-grade, scale ceiling)."
  in
  let names_only =
    Arg.(
      value & flag
      & info [ "names" ]
          ~doc:
            "Print bare detector names, one per line — the scriptable form \
             the registry-driven smoke matrix iterates.")
  in
  let run names_only =
    if names_only then List.iter print_endline (Detectors.names ())
    else print_string (Detectors.listing ())
  in
  Cmd.v (Cmd.info "detectors" ~doc) Term.(const run $ names_only)

(* -- serve / stress-client ---------------------------------------------- *)

module Serve = Sfr_serve.Server
module Serve_frame = Sfr_serve.Frame
module Serve_session = Sfr_serve.Session

(* Both commands address the daemon the same way. *)
let addr_of ~socket ~tcp =
  match (socket, tcp) with
  | Some path, None -> Ok (Unix.ADDR_UNIX path)
  | None, Some port -> Ok (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
  | _ -> Error "exactly one of --socket PATH or --tcp PORT is required"

let write_all fd bytes =
  let len = Bytes.length bytes in
  let off = ref 0 in
  (try
     while !off < len do
       off := !off + Unix.write fd bytes !off (len - !off)
     done
   with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
     (* peer hung up; its disconnect surfaces through the read path *)
     ())

let serve_cmd =
  let doc =
    "Run the streaming ingest daemon: concurrent clients stream .sflog \
     bytes over a Unix or TCP socket and receive per-session race \
     verdicts. Exits 1 when any served session reported races, 2 on a \
     fatal server error."
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Listen on a Unix domain socket.")
  in
  let tcp =
    Arg.(
      value
      & opt (some int) None
      & info [ "tcp" ] ~docv:"PORT" ~doc:"Listen on loopback TCP $(docv).")
  in
  let budget =
    Arg.(
      value
      & opt int (4 * 1024 * 1024)
      & info [ "budget" ] ~docv:"BYTES"
          ~doc:"Global byte budget across all session queues.")
  in
  let overload =
    Arg.(
      value
      & opt (enum [ ("shed", Serve.Shed); ("park", Serve.Park); ("block", Serve.Block) ])
          Serve.Shed
      & info [ "overload" ]
          ~doc:
            "Policy when the budget is exceeded: shed (finish the offending \
             session with ERR_OVERLOAD), park (freeze credit until \
             pressure halves), or block (refuse new sessions).")
  in
  let credit_window =
    Arg.(
      value
      & opt int (256 * 1024)
      & info [ "credit-window" ] ~docv:"BYTES"
          ~doc:"Per-session in-flight byte window (bounds each queue).")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Per-session wall-clock deadline (ERR_DEADLINE, retryable).")
  in
  let idle_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "idle-ms" ] ~docv:"MS"
          ~doc:"Per-session idle timeout (ERR_IDLE, retryable).")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            (Printf.sprintf
               "Location-sharded access checking per session, as replay (1 \
                to %d)."
               Stream_replay.max_shards))
  in
  let pool =
    Arg.(
      value & opt int 0
      & info [ "pool" ] ~docv:"N"
          ~doc:
            "Detection pool domains (0 = analyze inline in the accept loop).")
  in
  let max_sessions =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-sessions" ] ~docv:"N"
          ~doc:"Exit after $(docv) sessions have finished (smoke tests).")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ] ~doc:"Print serve metric counters on exit.")
  in
  let audit_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "audit-out" ] ~docv:"FILE"
          ~doc:
            "Stream a structured audit log (one JSONL record per \
             session-lifecycle edge: hello, credit, park/thaw, shed, \
             timeout, disconnect, verdict) to $(docv). See \
             $(b,audit-lint) for validation.")
  in
  let sinks =
    sinks_term
      ~trace_doc:
        "Write a chrome://tracing JSON of the daemon's lifetime to $(docv): \
         per-session lifecycle spans (hello to verdict) over the per-domain \
         decode/ingest work spans."
      ~telemetry_doc:
        "Sample continuous telemetry during serving and stream it as JSONL \
         to $(docv). See $(b,telemetry-lint) for validation."
  in
  let run socket tcp budget overload credit_window deadline_ms idle_ms shards
      pool max_sessions stats audit_out sinks =
    let addr =
      match addr_of ~socket ~tcp with
      | Ok a -> a
      | Error msg ->
          Printf.eprintf "%s\n" msg;
          exit 2
    in
    let cfg =
      {
        Serve.session =
          { Serve_session.credit_window; deadline_ms; idle_ms; shards };
        global_budget = budget;
        overload;
        pool_domains = pool;
        defer_ingest = false;
      }
    in
    (match Serve.validate cfg with
    | Ok () -> ()
    | Error msg ->
        Printf.eprintf "serve: %s\n" msg;
        exit 2);
    let listen_fd =
      try
        let domain = Unix.domain_of_sockaddr addr in
        let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
        (match addr with
        | Unix.ADDR_UNIX path when Sys.file_exists path -> Unix.unlink path
        | _ -> ());
        if domain = Unix.PF_INET then Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd addr;
        Unix.listen fd 64;
        fd
      with Unix.Unix_error (e, _, _) ->
        Printf.eprintf "cannot listen: %s\n" (Unix.error_message e);
        exit 2
    in
    (* a client that vanishes mid-write must not kill the daemon *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    (* observability sinks arm before the first accept so session 0's
       whole lifecycle is covered *)
    let outcomes, fatal =
      Sfr_obs.Telemetry.with_sinks sinks (fun () ->
        (match audit_out with
        | None -> ()
        | Some f -> (
            try Sfr_serve.Audit.open_sink ~path:f ()
            with Sys_error msg ->
              Printf.eprintf "cannot open audit log: %s\n" msg;
              exit 2));
        let server = Serve.create cfg in
        Printf.printf "serving on %s (budget %dB, %s, pool %d)\n%!"
          (match addr with
          | Unix.ADDR_UNIX p -> p
          | Unix.ADDR_INET (_, port) -> Printf.sprintf "tcp:%d" port)
          budget
          (Serve.overload_to_string overload)
          pool;
        let clients : (Unix.file_descr, Serve.conn) Hashtbl.t = Hashtbl.create 16 in
        let buf = Bytes.create 65536 in
        let running = ref true in
        let fatal = ref None in
        (try
           while !running do
             (* The session limit counts connections that can still produce
                outcomes (live ones) plus outcomes already latched — an
                admin probe connects, answers, disconnects, and frees its
                slot without ever counting as served. *)
             let accepting =
               match max_sessions with
               | Some m ->
                   Hashtbl.length clients + List.length (Serve.outcomes server)
                   < m
               | None -> true
             in
             let fds =
               (if accepting then [ listen_fd ] else [])
               @ Hashtbl.fold (fun fd _ acc -> fd :: acc) clients []
             in
             let readable, _, _ =
               match Unix.select fds [] [] 0.05 with
               | r -> r
               | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
             in
             List.iter
               (fun fd ->
                 if fd = listen_fd then begin
                   let cfd, _ = Unix.accept listen_fd in
                   let conn = Serve.connect server ~send:(write_all cfd) in
                   Hashtbl.replace clients cfd conn
                 end
                 else
                   match Hashtbl.find_opt clients fd with
                   | None -> ()
                   | Some conn -> (
                       match Unix.read fd buf 0 (Bytes.length buf) with
                       | 0 | (exception Unix.Unix_error _) ->
                           Hashtbl.remove clients fd;
                           (try Unix.close fd with Unix.Unix_error _ -> ());
                           Serve.on_disconnect server conn
                       | n -> Serve.on_bytes server conn buf ~pos:0 ~len:n))
               readable;
             Serve.tick server;
             (match max_sessions with
             | Some m when List.length (Serve.outcomes server) >= m ->
                 running := false
             | _ -> ())
           done
         with e ->
           Sfr_obs.Flight.crash_dump
             ~reason:(Printf.sprintf "serve: %s" (Printexc.to_string e));
           fatal := Some (Printexc.to_string e));
        Serve.quiesce server;
        Serve.shutdown server;
        Hashtbl.iter
          (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ())
          clients;
        (try Unix.close listen_fd with Unix.Unix_error _ -> ());
        (match addr with
        | Unix.ADDR_UNIX path when Sys.file_exists path -> (
            try Unix.unlink path with Unix.Unix_error _ -> ())
        | _ -> ());
        (match audit_out with
        | None -> ()
        | Some f ->
            let n = Sfr_serve.Audit.record_count () in
            Sfr_serve.Audit.close_sink ();
            Printf.printf "wrote audit log (%d records) to %s\n" n f);
        (Serve.outcomes server, !fatal))
    in
    List.iter
      (fun (o : Serve_session.outcome) ->
        Printf.printf
          "session %d: %s races=%d events=%d bytes=%d%s%s\n"
          o.Serve_session.session
          (Serve_frame.reply_code_name o.Serve_session.code)
          o.Serve_session.races o.Serve_session.events
          o.Serve_session.bytes_analyzed
          (if Serve_frame.retryable o.Serve_session.code then " (retryable)"
           else "")
          (if o.Serve_session.message = "" then ""
           else ": " ^ o.Serve_session.message))
      outcomes;
    Printf.printf "served %d session(s)\n" (List.length outcomes);
    if stats then begin
      print_endline "-- metrics ----------------------------------------";
      print_string
        (Format.asprintf "%a" Sfr_obs.Metrics.pp_table
           (List.filter
              (fun (n, _) -> String.length n >= 5 && String.sub n 0 5 = "serve")
              (Sfr_obs.Metrics.snapshot ())))
    end;
    match fatal with
    | Some msg ->
        Printf.eprintf "FATAL: %s\n" msg;
        exit 2
    | None ->
        if
          List.exists
            (fun (o : Serve_session.outcome) ->
              o.Serve_session.code = Serve_frame.Ok_races)
            outcomes
        then exit 1
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket $ tcp $ budget $ overload $ credit_window
      $ deadline_ms $ idle_ms $ shards $ pool $ max_sessions $ stats
      $ audit_out $ sinks)

(* One stress-client session: its own socket, its own behaviour mode. *)
type stress_mode = M_healthy | M_torn | M_over_budget | M_idle

let stress_mode_name = function
  | M_healthy -> "healthy"
  | M_torn -> "torn"
  | M_over_budget -> "over-budget"
  | M_idle -> "idle"

type stress_result = {
  sr_index : int;
  sr_mode : stress_mode;
  sr_reply : Serve_frame.frame option;  (** terminal, if one arrived *)
  sr_error : string option;
}

let stress_session ~addr ~image ~frame ~idle_park_s index mode =
  let fd =
    Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0
  in
  match Unix.connect fd addr with
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      {
        sr_index = index;
        sr_mode = mode;
        sr_reply = None;
        sr_error = Some (Unix.error_message e);
      }
  | () ->
      let dec = Serve_frame.decoder () in
      let credit = ref 0 in
      let window = ref 0 in
      let terminal = ref None in
      let rbuf = Bytes.create 65536 in
      let peer_gone = ref false in
      (* Drain whatever the server has sent; [block] waits up to 100 ms. *)
      let pump_replies ~block =
        let readable, _, _ =
          try Unix.select [ fd ] [] [] (if block then 0.1 else 0.0)
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        if readable <> [] then begin
          match Unix.read fd rbuf 0 (Bytes.length rbuf) with
          | 0 | (exception Unix.Unix_error _) -> peer_gone := true
          | n ->
              Serve_frame.decoder_feed dec rbuf ~pos:0 ~len:n;
              let continue_ = ref true in
              while !continue_ do
                match Serve_frame.decoder_next dec with
                | Ok (Some f) -> (
                    match f with
                    | Serve_frame.Welcome { credit = c; _ } ->
                        credit := !credit + c;
                        window := c
                    | Serve_frame.Credit c -> credit := !credit + c
                    | Serve_frame.Verdict _ | Serve_frame.Reject _ ->
                        terminal := Some f
                    | _ -> ())
                | Ok None | Error _ -> continue_ := false
              done
        end
      in
      let send frame_v = write_all fd (Serve_frame.to_bytes frame_v) in
      let wait_terminal ~timeout_s =
        let t0 = Unix.gettimeofday () in
        while
          !terminal = None && (not !peer_gone)
          && Unix.gettimeofday () -. t0 < timeout_s
        do
          pump_replies ~block:true
        done
      in
      send (Serve_frame.Hello { version = Serve_frame.protocol_version });
      let len = Bytes.length image in
      (match mode with
      | M_healthy ->
          let sent = ref 0 in
          while !sent < len && !terminal = None && not !peer_gone do
            if !credit <= 0 then pump_replies ~block:true
            else begin
              let n = min frame (min !credit (len - !sent)) in
              send (Serve_frame.Data (Bytes.sub image !sent n));
              credit := !credit - n;
              sent := !sent + n;
              pump_replies ~block:false
            end
          done;
          if !terminal = None && not !peer_gone then begin
            send Serve_frame.Close;
            wait_terminal ~timeout_s:30.0
          end
      | M_torn ->
          (* stream roughly half, then tear the connection mid-frame *)
          let target = max 1 (len / 2) in
          let sent = ref 0 in
          while !sent < target && !terminal = None && not !peer_gone do
            if !credit <= 0 then pump_replies ~block:true
            else begin
              let n = min frame (min !credit (target - !sent)) in
              send (Serve_frame.Data (Bytes.sub image !sent n));
              credit := !credit - n;
              sent := !sent + n;
              pump_replies ~block:false
            end
          done;
          (* half a frame header: the server sees a truncated uplink *)
          write_all fd (Bytes.make 1 '\x02')
      | M_over_budget ->
          (* hostile: one DATA frame bigger than the whole credit window —
             a deterministic overrun no matter how fast ingest drains *)
          let t0 = Unix.gettimeofday () in
          while
            !window = 0 && (not !peer_gone)
            && Unix.gettimeofday () -. t0 < 10.0
          do
            pump_replies ~block:true
          done;
          let n = !window + 1 in
          let payload = Bytes.create n in
          for i = 0 to n - 1 do
            Bytes.set payload i (Bytes.get image (i mod len))
          done;
          send (Serve_frame.Data payload);
          wait_terminal ~timeout_s:30.0
      | M_idle ->
          (* a trickle, then silence past the server's idle timeout *)
          pump_replies ~block:true;
          let n = min frame (min (max 1 !credit) len) in
          send (Serve_frame.Data (Bytes.sub image 0 n));
          let t0 = Unix.gettimeofday () in
          while
            !terminal = None && (not !peer_gone)
            && Unix.gettimeofday () -. t0 < idle_park_s
          do
            pump_replies ~block:true
          done;
          wait_terminal ~timeout_s:30.0);
      (try Unix.close fd with Unix.Unix_error _ -> ());
      { sr_index = index; sr_mode = mode; sr_reply = !terminal; sr_error = None }

let stress_client_cmd =
  let doc =
    "Stress a running $(b,serve) daemon: stream a recorded workload log \
     over N concurrent sessions, optionally making some misbehave (tear \
     mid-frame, ignore credit, go idle) to exercise the typed error \
     paths. Exits 1 when any session's reply deviates from its mode's \
     expectation, 2 on connection failures."
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Daemon Unix socket.")
  in
  let tcp =
    Arg.(
      value
      & opt (some int) None
      & info [ "tcp" ] ~docv:"PORT" ~doc:"Daemon loopback TCP port.")
  in
  let workload =
    Arg.(
      required
      & opt (some string) None
      & info [ "w"; "workload" ] ~docv:"NAME" ~doc:"Benchmark to record and stream.")
  in
  let scale =
    Arg.(
      value
      & opt scale_conv Workload.Tiny
      & info [ "s"; "scale" ] ~doc:"Scale: tiny, small, default, large, paper.")
  in
  let inject =
    Arg.(value & flag & info [ "inject-race" ] ~doc:"Plant a determinacy race.")
  in
  let sessions =
    Arg.(
      value & opt int 4
      & info [ "sessions" ] ~docv:"N" ~doc:"Concurrent sessions.")
  in
  let torn =
    Arg.(
      value & opt int 0
      & info [ "torn" ] ~docv:"K" ~doc:"Sessions that tear mid-frame.")
  in
  let over_budget =
    Arg.(
      value & opt int 0
      & info [ "over-budget" ] ~docv:"K"
          ~doc:"Sessions that ignore credit (expect ERR_PROTOCOL/ERR_OVERLOAD).")
  in
  let idle =
    Arg.(
      value & opt int 0
      & info [ "idle" ] ~docv:"K"
          ~doc:"Sessions that go silent (expect ERR_IDLE; give the daemon \
                --idle-ms).")
  in
  let idle_park_s =
    Arg.(
      value & opt float 5.0
      & info [ "idle-park-s" ] ~docv:"S"
          ~doc:"How long idle sessions stay silent before giving up.")
  in
  let frame =
    Arg.(
      value & opt int 4096
      & info [ "frame" ] ~docv:"BYTES" ~doc:"DATA frame payload size.")
  in
  let run socket tcp workload scale inject sessions torn over_budget idle
      idle_park_s frame =
    let addr =
      match addr_of ~socket ~tcp with
      | Ok a -> a
      | Error msg ->
          Printf.eprintf "%s\n" msg;
          exit 2
    in
    if torn + over_budget + idle > sessions then begin
      Printf.eprintf "--torn + --over-budget + --idle exceed --sessions\n";
      exit 2
    end;
    let w =
      match Registry.find workload with
      | Some w -> w
      | None ->
          Printf.eprintf "unknown workload %S (try: racedetect list)\n" workload;
          exit 2
    in
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    (* record once, stream the same image from every session *)
    let tmp = Filename.temp_file "stress" ".sflog" in
    let image =
      Fun.protect
        ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
        (fun () ->
          let inst = w.Workload.instantiate ~inject_race:inject scale in
          let rec_, cb, root = Sfr_eventlog.Recorder.create ~path:tmp () in
          ignore (Serial_exec.run cb ~root inst.Workload.program);
          ignore (Sfr_eventlog.Recorder.close rec_);
          let ic = open_in_bin tmp in
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () ->
              let n = in_channel_length ic in
              really_input_string ic n |> Bytes.of_string))
    in
    Printf.printf "streaming %d-byte log x %d session(s) (%d torn, %d \
                   over-budget, %d idle)\n%!"
      (Bytes.length image) sessions torn over_budget idle;
    let mode_of i =
      if i < torn then M_torn
      else if i < torn + over_budget then M_over_budget
      else if i < torn + over_budget + idle then M_idle
      else M_healthy
    in
    let domains =
      List.init sessions (fun i ->
          Domain.spawn (fun () ->
              stress_session ~addr ~image ~frame ~idle_park_s i (mode_of i)))
    in
    let results = List.map Domain.join domains in
    let failures = ref 0 in
    List.iter
      (fun r ->
        let describe =
          match r.sr_reply with
          | Some (Serve_frame.Verdict { code; races; events; bytes_analyzed; _ })
            ->
              Printf.sprintf "%s races=%d events=%d bytes=%d"
                (Serve_frame.reply_code_name code)
                races events bytes_analyzed
          | Some (Serve_frame.Reject { code; _ }) ->
              Printf.sprintf "REJECT %s" (Serve_frame.reply_code_name code)
          | Some f -> Format.asprintf "%a" Serve_frame.pp f
          | None -> "no terminal reply"
        in
        let ok =
          match (r.sr_error, r.sr_mode, r.sr_reply) with
          | Some _, _, _ -> false
          | None, M_healthy, Some (Serve_frame.Verdict { code; _ }) ->
              code = Serve_frame.Ok_clean || code = Serve_frame.Ok_races
          | None, M_torn, _ ->
              (* tore the uplink on purpose; the server-side verdict is
                 checked by the daemon, not here *)
              true
          | None, M_over_budget, Some (Serve_frame.Verdict { code; _ }) ->
              code = Serve_frame.Err_protocol
              || code = Serve_frame.Err_overload
          | None, M_over_budget, Some (Serve_frame.Reject { code; _ }) ->
              code = Serve_frame.Err_overload
          | None, M_idle, Some (Serve_frame.Verdict { code; _ }) ->
              code = Serve_frame.Err_idle
          | _ -> false
        in
        if not ok then incr failures;
        (match r.sr_error with
        | Some e ->
            Printf.printf "client %d (%s): CONNECT FAILED: %s\n" r.sr_index
              (stress_mode_name r.sr_mode) e
        | None ->
            Printf.printf "client %d (%s): %s%s\n" r.sr_index
              (stress_mode_name r.sr_mode) describe
              (if ok then "" else " [UNEXPECTED]")))
      results;
    if List.exists (fun r -> r.sr_error <> None) results then exit 2;
    if !failures > 0 then exit 1
  in
  Cmd.v (Cmd.info "stress-client" ~doc)
    Term.(
      const run $ socket $ tcp $ workload $ scale $ inject $ sessions $ torn
      $ over_budget $ idle $ idle_park_s $ frame)

(* -- serve-stats / audit-lint ------------------------------------------- *)

let serve_stats_cmd =
  let doc =
    "Query a running $(b,serve) daemon's admin plane over its own wire \
     protocol: one-bit health with a detail line, the live session table \
     as JSON, and a Prometheus metrics scrape. Exits 1 when the daemon \
     reports itself degraded, 2 on connection failure, timeout, or (with \
     $(b,--check)) an invalid exposition."
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Daemon Unix socket.")
  in
  let tcp =
    Arg.(
      value
      & opt (some int) None
      & info [ "tcp" ] ~docv:"PORT" ~doc:"Daemon loopback TCP port.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Validate the metrics scrape against the Prometheus text-format \
             grammar (exit 2 on violation).")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"Write the metrics scrape to $(docv) instead of stdout.")
  in
  let timeout_s =
    Arg.(
      value & opt float 10.0
      & info [ "timeout-s" ] ~docv:"S"
          ~doc:"Give up if the daemon has not answered within $(docv).")
  in
  let run socket tcp check metrics_out timeout_s =
    let addr =
      match addr_of ~socket ~tcp with
      | Ok a -> a
      | Error msg ->
          Printf.eprintf "%s\n" msg;
          exit 2
    in
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
    (match Unix.connect fd addr with
    | exception Unix.Unix_error (e, _, _) ->
        Printf.eprintf "cannot connect: %s\n" (Unix.error_message e);
        exit 2
    | () -> ());
    write_all fd (Serve_frame.to_bytes Serve_frame.Health_req);
    write_all fd (Serve_frame.to_bytes Serve_frame.Stats_req);
    write_all fd (Serve_frame.to_bytes Serve_frame.Metrics_req);
    let dec = Serve_frame.decoder () in
    let health = ref None in
    let stats = ref None in
    let metrics = ref None in
    let gone = ref false in
    let rbuf = Bytes.create 65536 in
    let t0 = Unix.gettimeofday () in
    while
      (!health = None || !stats = None || !metrics = None)
      && (not !gone)
      && Unix.gettimeofday () -. t0 < timeout_s
    do
      let readable, _, _ =
        try Unix.select [ fd ] [] [] 0.1
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      if readable <> [] then
        match Unix.read fd rbuf 0 (Bytes.length rbuf) with
        | 0 | (exception Unix.Unix_error _) -> gone := true
        | n ->
            Serve_frame.decoder_feed dec rbuf ~pos:0 ~len:n;
            let continue_ = ref true in
            while !continue_ do
              match Serve_frame.decoder_next dec with
              | Ok (Some (Serve_frame.Health_reply { healthy; detail })) ->
                  health := Some (healthy, detail)
              | Ok (Some (Serve_frame.Stats_reply s)) -> stats := Some s
              | Ok (Some (Serve_frame.Metrics_reply m)) -> metrics := Some m
              | Ok (Some _) -> ()
              | Ok None | Error _ -> continue_ := false
            done
    done;
    (try Unix.close fd with Unix.Unix_error _ -> ());
    match (!health, !stats, !metrics) with
    | Some (healthy, detail), Some stats_doc, Some scrape ->
        Printf.printf "health: %s (%s)\n"
          (if healthy then "healthy" else "degraded")
          detail;
        print_endline stats_doc;
        if check then begin
          match Sfr_obs.Telemetry.check_prometheus scrape with
          | Ok n -> Printf.eprintf "exposition OK: %d sample line(s)\n" n
          | Error e ->
              Printf.eprintf "exposition INVALID: %s\n" e;
              exit 2
        end;
        (match metrics_out with
        | None -> print_string scrape
        | Some f -> (
            match
              let oc = open_out f in
              Fun.protect
                ~finally:(fun () -> close_out oc)
                (fun () -> output_string oc scrape)
            with
            | () -> Printf.eprintf "wrote metrics scrape to %s\n" f
            | exception Sys_error msg ->
                Printf.eprintf "cannot write %s: %s\n" f msg;
                exit 2));
        if not healthy then exit 1
    | _ ->
        Printf.eprintf "daemon did not answer within %.1fs%s\n" timeout_s
          (if !gone then " (connection closed)" else "");
        exit 2
  in
  Cmd.v (Cmd.info "serve-stats" ~doc)
    Term.(const run $ socket $ tcp $ check $ metrics_out $ timeout_s)

let audit_lint_cmd =
  let doc =
    "Validate a JSONL audit log written by $(b,serve --audit-out): schema \
     header, per-line JSON, known event names, strictly increasing \
     sequence numbers, per-event required fields. Exit 2 on malformed \
     input, 1 when fewer than --min-records records are present."
  in
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Audit JSONL file.")
  in
  let min_records =
    Arg.(
      value & opt int 1
      & info [ "min-records" ] ~docv:"N"
          ~doc:"Require at least $(docv) records.")
  in
  let run file min_records =
    let text =
      try
        let ic = open_in_bin file in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with Sys_error msg ->
        Printf.eprintf "%s: %s\n" file msg;
        exit 2
    in
    match Sfr_serve.Audit.lint_jsonl text with
    | Error e ->
        Printf.eprintf "%s: %s\n" file e;
        exit 2
    | Ok n ->
        Printf.printf "%s: %d record(s), schema %d\n" file n
          Sfr_serve.Audit.schema_version;
        if n < min_records then begin
          Printf.eprintf "expected at least %d record(s), found %d\n"
            min_records n;
          exit 1
        end
  in
  Cmd.v (Cmd.info "audit-lint" ~doc) Term.(const run $ file $ min_records)

(* Usage errors exit 2, like every other bad input (README's exit-code
   table), instead of cmdliner's 124/123. *)
let () =
  let doc = "on-the-fly determinacy race detection for structured futures" in
  let info = Cmd.info "racedetect" ~version:"1.0.0" ~doc in
  let cmd =
    Cmd.group info
      [
        list_cmd;
        detectors_cmd;
        run_cmd;
        synth_cmd;
        record_cmd;
        replay_cmd;
        analyze_cmd;
        chaos_cmd;
        metrics_dump_cmd;
        telemetry_lint_cmd;
        serve_cmd;
        stress_client_cmd;
        serve_stats_cmd;
        audit_lint_cmd;
      ]
  in
  exit
    (match Cmd.eval_value cmd with
    | Ok (`Ok () | `Version | `Help) -> Cmd.Exit.ok
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> Cmd.Exit.internal_error)
