(** Differential replay driver: the executable spec of the chaos layer.

    For each seed, generate a random structured-futures program
    ({!Sfr_workloads.Synthetic}), compute ground truth with {!oracle}
    (the serial naive analysis, chaos disarmed; there is no other
    ground truth to select), then run the detector under test —
    parallel when it supports it — with seeded fault injection armed
    around the execution. The run fails the seed when racy-location
    verdicts (normalized to the instance's memory base) or checksums
    diverge, or the run crashes with anything other than the synthetic
    {!Sfr_chaos.Chaos.Injected} fault.

    Failures re-run deterministically (same seed, same chaos stream) and
    optionally shrink to a minimal reproducer ({!Shrink}), recorded
    serially to [chaos-repro-SEED.sflog] for [racedetect analyze] or
    [racedetect replay]. Counters: [chaos.seeds],
    [chaos.mismatches] (plus [chaos.shrink_steps] from the shrinker). *)

module Chaos = Sfr_chaos.Chaos

type config = {
  seeds : int;  (** number of seeds to sweep *)
  base_seed : int;  (** first seed; seed [i] is [base_seed + i] *)
  ops : int;  (** generator op budget per program *)
  depth : int;  (** generator nesting depth *)
  locs : int;  (** shared-location space size *)
  workers : int;  (** parallel workers (1 = serial even for parallel-capable) *)
  chaos : Chaos.config option;  (** [None] disables injection entirely *)
  shrink : bool;  (** delta-debug failures to minimal reproducers *)
  out_dir : string option;  (** where to record reproducer .sflog files *)
}

val default_config : config

type verdict = { racy : int list; checksum : int }
(** Normalized racy locations (sorted, memory-base-relative) plus the
    deterministic future-result checksum. *)

type mismatch = {
  seed : int;
  expected : verdict;  (** the serial oracle's verdict *)
  got : verdict option;  (** [None] when the run crashed instead *)
  crash : string option;
  reduced : Sfr_workloads.Synthetic.t option;
  shrink_steps : int;
  repro_path : string option;
}

type outcome =
  | Match
  | Fault_surfaced
      (** an injected fault aborted the run and surfaced as
          [Chaos.Injected] — the exception-safety contract held *)
  | Failed of mismatch

type report = {
  seeds_run : int;
  matched : int;
  faults_surfaced : int;
  injected : int;  (** total faults injected across all runs *)
  mismatches : mismatch list;
}

val oracle : Sfr_workloads.Synthetic.t -> verdict
(** The ground truth for a program: a serial trace analysed by
    {!Sfr_detect.Naive_detector.analyze}, exact DAG reachability that
    shares no code with any detector. Chaos must be disarmed by the
    caller; {!run_seed} arms only around the detector run. *)

val run_seed :
  config -> make:(unit -> Sfr_detect.Detector.t) -> seed:int -> outcome
(** Deterministic given (config, detector, seed) under serial execution;
    under parallel execution the program and chaos decision streams are
    still seed-determined, only interleaving varies. *)

val run :
  ?progress:(int -> unit) ->
  config ->
  make:(unit -> Sfr_detect.Detector.t) ->
  report
(** Sweep [config.seeds] seeds. [progress] is called after each seed
    with the number completed. *)

val pp_verdict : Format.formatter -> verdict -> unit
val pp_mismatch : Format.formatter -> mismatch -> unit
