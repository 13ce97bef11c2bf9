module Chaos = Sfr_chaos.Chaos
module Metrics = Sfr_obs.Metrics
module Serial_exec = Sfr_runtime.Serial_exec
module Par_exec = Sfr_runtime.Par_exec
module Trace = Sfr_runtime.Trace
module Synthetic = Sfr_workloads.Synthetic
module Detector = Sfr_detect.Detector
module Naive_detector = Sfr_detect.Naive_detector
module Recorder = Sfr_eventlog.Recorder

let m_mismatches = Metrics.counter "chaos.mismatches"
let m_seeds = Metrics.counter "chaos.seeds"

type config = {
  seeds : int;
  base_seed : int;
  ops : int;
  depth : int;
  locs : int;
  workers : int;
  chaos : Chaos.config option;
  shrink : bool;
  out_dir : string option;
}

let default_config =
  {
    seeds = 50;
    base_seed = 1;
    ops = 120;
    depth = 4;
    locs = 6;
    workers = 4;
    chaos = Some Chaos.default_config;
    shrink = false;
    out_dir = None;
  }

type verdict = { racy : int list; checksum : int }

type mismatch = {
  seed : int;
  expected : verdict;
  got : verdict option;  (** [None] when the run crashed instead *)
  crash : string option;
  reduced : Synthetic.t option;
  shrink_steps : int;
  repro_path : string option;
}

type outcome = Match | Fault_surfaced | Failed of mismatch

type report = {
  seeds_run : int;
  matched : int;
  faults_surfaced : int;
  injected : int;
  mismatches : mismatch list;
}

(* The one ground truth: depth-first serial execution recorded into a
   dag, then the O(n^2)-ish naive analysis. Chaos must be disarmed here — the
   oracle defines expected behavior, it is not under test. *)
let oracle t =
  let inst = Synthetic.instantiate t in
  let trace, cb, root = Trace.make ~log_accesses:true () in
  let (), _ = Serial_exec.run cb ~root inst.Synthetic.program in
  let v = Naive_detector.analyze (Trace.dag trace) (Trace.accesses trace) in
  {
    racy =
      List.sort compare
        (List.map
           (fun l -> l - inst.Synthetic.mem_base)
           v.Naive_detector.racy_locations);
    checksum = inst.Synthetic.checksum ();
  }

(* One detector run: parallel when the detector supports it and the
   config asks for workers, serial otherwise; chaos armed around exactly
   the execution (never the oracle or the comparison). *)
let run_one cfg ~make ~chaos_seed t =
  let det = make () in
  let inst = Synthetic.instantiate t in
  let exec () =
    if det.Detector.supports_parallel && cfg.workers > 1 then
      ignore
        (Par_exec.run ~workers:cfg.workers det.Detector.callbacks
           ~root:det.Detector.root inst.Synthetic.program)
    else
      ignore
        (Serial_exec.run det.Detector.callbacks ~root:det.Detector.root
           inst.Synthetic.program)
  in
  (match cfg.chaos with
  | Some config -> Chaos.with_armed ~config ~seed:chaos_seed exec
  | None -> exec ());
  {
    racy =
      List.sort compare
        (List.map
           (fun l -> l - inst.Synthetic.mem_base)
           (Detector.racy_locations det));
    checksum = inst.Synthetic.checksum ();
  }

let verdicts_agree a b = a.racy = b.racy && a.checksum = b.checksum

(* Does (program, detector) still fail? Used both for the initial check
   and as the shrink predicate. *)
let check cfg ~make ~chaos_seed t =
  let expected = oracle t in
  match run_one cfg ~make ~chaos_seed t with
  | got -> if verdicts_agree expected got then `Match else `Diff (expected, got)
  | exception Chaos.Injected _ -> `Fault
  | exception e -> `Crash (expected, Printexc.to_string e)

let dump_repro cfg ~seed t =
  match cfg.out_dir with
  | None -> None
  | Some dir ->
      let path = Filename.concat dir (Printf.sprintf "chaos-repro-%d.sflog" seed) in
      let inst = Synthetic.instantiate t in
      let rec_, cb, root = Recorder.create ~path () in
      ignore (Serial_exec.run cb ~root inst.Synthetic.program);
      ignore (Recorder.close rec_);
      Some path

let run_seed cfg ~make ~seed =
  Metrics.incr m_seeds;
  let t =
    Synthetic.generate ~seed ~ops:cfg.ops ~depth:cfg.depth ~locs:cfg.locs ()
  in
  match check cfg ~make ~chaos_seed:seed t with
  | `Match -> Match
  | `Fault -> Fault_surfaced
  | (`Diff _ | `Crash _) as failure ->
      Metrics.incr m_mismatches;
      (* the recorder still holds the scheduling window of the failing
         run; dump it before shrinking re-executions overwrite it *)
      Sfr_obs.Flight.crash_dump
        ~reason:(Printf.sprintf "chaos differential mismatch (seed %d)" seed);
      let expected, got, crash =
        match failure with
        | `Diff (e, g) -> (e, Some g, None)
        | `Crash (e, msg) -> (e, None, Some msg)
      in
      let reduced, shrink_steps =
        if not cfg.shrink then (None, 0)
        else begin
          let still_fails t' =
            match check cfg ~make ~chaos_seed:seed t' with
            | `Diff _ | `Crash _ -> true
            | `Match | `Fault -> false
          in
          let r = Shrink.shrink ~test:still_fails t in
          (Some r.Shrink.reduced, r.Shrink.steps)
        end
      in
      let repro_path =
        dump_repro cfg ~seed (Option.value reduced ~default:t)
      in
      Failed { seed; expected; got; crash; reduced; shrink_steps; repro_path }

let run ?(progress = fun _ -> ()) cfg ~make =
  let matched = ref 0 in
  let faults = ref 0 in
  let injected = ref 0 in
  let mismatches = ref [] in
  for i = 0 to cfg.seeds - 1 do
    let seed = cfg.base_seed + i in
    (match run_seed cfg ~make ~seed with
    | Match -> incr matched
    | Fault_surfaced -> incr faults
    | Failed m -> mismatches := m :: !mismatches);
    injected := !injected + Chaos.injected_count ();
    progress (i + 1)
  done;
  {
    seeds_run = cfg.seeds;
    matched = !matched;
    faults_surfaced = !faults;
    injected = !injected;
    mismatches = List.rev !mismatches;
  }

let pp_verdict fmt v =
  Format.fprintf fmt "racy=[%s] checksum=%d"
    (String.concat ";" (List.map string_of_int v.racy))
    v.checksum

let pp_mismatch fmt m =
  Format.fprintf fmt "seed %d: " m.seed;
  (match (m.got, m.crash) with
  | _, Some c -> Format.fprintf fmt "crash %s" c
  | Some got, None ->
      Format.fprintf fmt "oracle {%a} vs detector {%a}" pp_verdict m.expected
        pp_verdict got
  | None, None -> Format.fprintf fmt "oracle {%a} vs ???" pp_verdict m.expected);
  (match m.reduced with
  | Some r ->
      Format.fprintf fmt " (shrunk to %d nodes in %d steps)" (Synthetic.size r)
        m.shrink_steps
  | None -> ());
  match m.repro_path with
  | Some p -> Format.fprintf fmt " repro: %s" p
  | None -> ()
