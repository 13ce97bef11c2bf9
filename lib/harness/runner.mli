(** Measurement driver for the benchmark harness.

    Mirrors the paper's experimental configurations (Section 4):
    - [Base]: no detection (the baseline columns);
    - [Reach]: reachability maintenance only — detector callbacks run for
      parallel constructs but memory accesses are not instrumented;
    - [Full]: complete race detection.

    Executions here are serial and wall-clock timed (the T1 columns);
    multi-worker times are produced by {!Sfr_runtime.Sim_sched} over the
    recorded dag (DESIGN.md §5.1), scaled by the measured T1. *)

type mode =
  | Base
  | Reach of (unit -> Sfr_detect.Detector.t)
  | Full of (unit -> Sfr_detect.Detector.t)

type measurement = {
  seconds : float;  (** mean over measured repeats *)
  queries : int;
  reach_words : int;
  reach_table_words : int;
  history_words : int;
  max_readers : int;
  racy_locations : int;
}

val time_serial :
  repeats:int ->
  (unit -> Sfr_workloads.Workload.instance) ->
  mode ->
  measurement
(** Each repeat instantiates a fresh workload instance and (for detector
    modes) a fresh detector; introspection fields come from the last
    repeat. One extra warmup repeat runs first and is excluded from
    [seconds].
    @raise Invalid_argument if [repeats < 1]. *)

type recorded = {
  dag : Sfr_dag.Dag.t;
  reads : int;
  writes : int;
  trace_seconds : float;
}

val record : (unit -> Sfr_workloads.Workload.instance) -> recorded
(** One serial traced run: the dag with per-strand costs plus access
    counts (Figure 3, and the input to the scheduling simulation). *)

val simulated_time :
  recorded -> measured_t1:float -> workers:int -> float
(** [measured_t1 × makespan_P / makespan_1]: the measured one-core time
    of a configuration spread over [workers] by greedy scheduling of the
    recorded dag. *)

val reach_only : Sfr_runtime.Events.callbacks -> Sfr_runtime.Events.callbacks
(** Strip the memory-access hooks, keeping the parallel-construct ones. *)
