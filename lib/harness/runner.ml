module Workload = Sfr_workloads.Workload
module Detector = Sfr_detect.Detector
module Events = Sfr_runtime.Events
module Serial_exec = Sfr_runtime.Serial_exec
module Trace = Sfr_runtime.Trace
module Sim_sched = Sfr_runtime.Sim_sched
module Stats = Sfr_support.Stats

type mode =
  | Base
  | Reach of (unit -> Detector.t)
  | Full of (unit -> Detector.t)

type measurement = {
  seconds : float;
  queries : int;
  reach_words : int;
  reach_table_words : int;
  history_words : int;
  max_readers : int;
  racy_locations : int;
}

let reach_only (cb : Events.callbacks) =
  {
    cb with
    Events.on_read = (fun _ _ -> ());
    on_write = (fun _ _ -> ());
    on_work = (fun _ _ -> ());
  }

let time_serial ~repeats make_instance mode =
  if repeats < 1 then invalid_arg "Runner.time_serial: repeats must be >= 1";
  let exec cb root prog = Serial_exec.run cb ~root prog |> fst in
  let last_detector = ref None in
  let one () =
    let inst = make_instance () in
    match mode with
    | Base ->
        let (), dt =
          Stats.time (fun () ->
              exec Events.null Events.Unit_state inst.Workload.program)
        in
        dt
    | Reach make_det ->
        let det = make_det () in
        last_detector := Some det;
        let cb = reach_only det.Detector.callbacks in
        let (), dt =
          Stats.time (fun () -> exec cb det.Detector.root inst.Workload.program)
        in
        dt
    | Full make_det ->
        let det = make_det () in
        last_detector := Some det;
        let (), dt =
          Stats.time (fun () ->
              exec det.Detector.callbacks det.Detector.root inst.Workload.program)
        in
        dt
  in
  (* one warmup repeat pays the code/cache/allocator cold costs so the
     measured samples reflect steady state; its time is discarded *)
  ignore (one ());
  let times = List.init repeats (fun _ -> one ()) in
  let queries, reach_words, reach_table_words, history_words, max_readers, racy =
    match !last_detector with
    | None -> (0, 0, 0, 0, 0, 0)
    | Some det ->
        ( det.Detector.queries (),
          det.Detector.reach_words (),
          det.Detector.reach_table_words (),
          det.Detector.history_words (),
          det.Detector.max_readers (),
          List.length (Detector.racy_locations det) )
  in
  {
    seconds = Stats.mean times;
    queries;
    reach_words;
    reach_table_words;
    history_words;
    max_readers;
    racy_locations = racy;
  }

type recorded = {
  dag : Sfr_dag.Dag.t;
  reads : int;
  writes : int;
  trace_seconds : float;
}

let record make_instance =
  let inst = make_instance () in
  let trace, cb, root = Trace.make () in
  let (), trace_seconds = Stats.time (fun () -> Serial_exec.run cb ~root inst.Workload.program |> fst) in
  { dag = Trace.dag trace; reads = Trace.reads trace; writes = Trace.writes trace; trace_seconds }

let simulated_time recorded ~measured_t1 ~workers =
  let m1 = Sim_sched.makespan recorded.dag ~workers:1 in
  let mp = Sim_sched.makespan recorded.dag ~workers in
  measured_t1 *. float_of_int mp /. float_of_int m1
