(* Differential tests for the hot-path optimizations (chunked cp store,
   access-history write filter + inline readers + mixed stripe hashing).

   The ablation contract: [Sf_order.make ~fast:false] is the reference
   implementation, and the optimized default must be observationally
   identical — byte-identical race reports (location, kind, attributed
   futures, witness count), identical reachability-query totals, and the
   identical reader high-water mark — on every workload, every synthetic
   program, and every history synchronization mode. The perf counters are
   the only thing allowed to differ, and on the cp container they must
   differ in the optimized direction. *)

module Workload = Sfr_workloads.Workload
module Registry = Sfr_workloads.Registry
module Synthetic = Sfr_workloads.Synthetic
module Detector = Sfr_detect.Detector
module Race = Sfr_detect.Race
module Sf_order = Sfr_detect.Sf_order
module Serial_exec = Sfr_runtime.Serial_exec
module Par_exec = Sfr_runtime.Par_exec
module Chaos = Sfr_chaos.Chaos

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

(* [base] rebases locations: each instantiation allocates fresh global
   location IDs, so reports are only comparable relative to the
   instance's own memory base *)
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
          (r.Race.loc - base, r.Race.kind, r.Race.prev_future,
           r.Race.cur_future, r.Race.count))
        (Race.reports det.Detector.races);
    o_queries = det.Detector.queries ();
    o_max_readers = det.Detector.max_readers ();
  }

let histories = [ (`Mutex, "mutex"); (`Lockfree, "lockfree") ]

(* fast and compat must agree on every real workload, both history
   synchronization modes, serial execution (deterministic schedule, so
   the outcomes must be exactly equal, not just race-equivalent) *)
let test_workloads_differential () =
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun (history, hname) ->
          let run fast =
            let inst = w.Workload.instantiate Workload.Tiny in
            run_full (Sf_order.make ~history ~fast ()) inst.Workload.program
          in
          let opt = run true in
          let ref_ = run false in
          check outcome
            (Printf.sprintf "%s/%s fast = compat" w.Workload.name hname)
            ref_ opt;
          check bool
            (Printf.sprintf "%s/%s nonzero queries" w.Workload.name hname)
            true (opt.o_queries > 0))
        histories)
    Registry.all

(* ... and on random synthetic dags, racy and race-free *)
let test_synthetic_differential () =
  List.iter
    (fun race_free ->
      for seed = 1 to 12 do
        let t = Synthetic.generate ~race_free ~seed ~ops:150 ~depth:5 ~locs:8 () in
        List.iter
          (fun (history, hname) ->
            let run fast =
              let inst = Synthetic.instantiate t in
              run_full ~base:inst.Synthetic.mem_base
                (Sf_order.make ~history ~fast ())
                inst.Synthetic.program
            in
            check outcome
              (Printf.sprintf "seed %d race_free=%b %s" seed race_free hname)
              (run false) (run true)
          )
          histories
      done)
    [ false; true ]

(* under a parallel schedule the witnessed interleaving (hence counts and
   query totals) may differ run to run, but the racy-location set is
   schedule-independent — fast and compat must find the same one *)
let racy_set o = List.map (fun (l, _, _, _, _) -> l) o.o_reports

let test_parallel_differential () =
  for seed = 1 to 6 do
    let t = Synthetic.generate ~seed ~ops:200 ~depth:5 ~locs:8 () in
    List.iter
      (fun (history, hname) ->
        let run fast workers =
          let inst = Synthetic.instantiate t in
          run_full ?workers ~base:inst.Synthetic.mem_base
            (Sf_order.make ~history ~fast ())
            inst.Synthetic.program
        in
        let serial = run true None in
        let par_fast = run true (Some 4) in
        let par_ref = run false (Some 4) in
        check (Alcotest.list int)
          (Printf.sprintf "seed %d %s: 4-domain fast = serial race set" seed hname)
          (racy_set serial) (racy_set par_fast);
        check (Alcotest.list int)
          (Printf.sprintf "seed %d %s: 4-domain compat = serial race set" seed hname)
          (racy_set serial) (racy_set par_ref))
      histories
  done

(* chaos-perturbed schedules stress the publication paths (chunk installs,
   write-cache invalidation, lock-free drains) without injecting faults:
   the race set must still match the serial run's *)
let test_chaos_parallel () =
  for seed = 1 to 4 do
    let t = Synthetic.generate ~seed:(100 + seed) ~ops:200 ~depth:5 ~locs:8 () in
    List.iter
      (fun (history, hname) ->
        let serial =
          let inst = Synthetic.instantiate t in
          run_full ~base:inst.Synthetic.mem_base (Sf_order.make ~history ())
            inst.Synthetic.program
        in
        let perturbed =
          Chaos.arm ~seed ();
          Fun.protect ~finally:Chaos.disarm (fun () ->
              let inst = Synthetic.instantiate t in
              run_full ~workers:4 ~base:inst.Synthetic.mem_base
                (Sf_order.make ~history ())
                inst.Synthetic.program)
        in
        check (Alcotest.list int)
          (Printf.sprintf "seed %d %s: chaos 4-domain race set = serial" seed hname)
          (racy_set serial) (racy_set perturbed))
      histories
  done

(* the ablation direction on the cp container: over a run with many
   future creates, the chunked store must charge strictly fewer container
   words to reach.table.alloc_words than copy-on-write snapshots, while
   agreeing on every observable. The set-table words (identical tables
   either way) cancel in the comparison because both runs allocate the
   same Fp_sets tables. *)
let test_cp_container_ablation () =
  let module P = Sfr_runtime.Program in
  let rec create_nest k () =
    if k = 0 then 0
    else begin
      let h = P.create (create_nest (k - 1)) in
      P.work 1;
      P.get h
    end
  in
  let alloc_words fast =
    let det = Sf_order.make ~fast () in
    Serial_exec.run det.Detector.callbacks ~root:det.Detector.root (fun () ->
        ignore (create_nest 1500 ()))
    |> fst;
    match List.assoc_opt "reach.table.alloc_words" (det.Detector.metrics ()) with
    | Some w -> w
    | None -> Alcotest.fail "reach.table.alloc_words not in metrics"
  in
  let chunked = alloc_words true in
  let cow = alloc_words false in
  if not (chunked < cow) then
    Alcotest.failf "chunked cp words (%d) not below copy-on-write (%d)" chunked
      cow;
  (* the gap must be the k² container term, not noise: for k=1500 the
     snapshots alone are > k²/2 = 1.1M words *)
  check bool "gap is quadratic-scale" true (cow - chunked > 500_000)

(* the write filter must actually absorb consecutive same-strand writes
   (the counter moving is what the scaling bench reports) *)
let test_write_fastpath_counter () =
  let module P = Sfr_runtime.Program in
  let metric det name =
    match List.assoc_opt name (det.Detector.metrics ()) with
    | Some v -> v
    | None -> 0
  in
  List.iter
    (fun (history, hname) ->
      let run fast =
        let a = P.alloc 4 0 in
        let det = Sf_order.make ~history ~fast () in
        Serial_exec.run det.Detector.callbacks ~root:det.Detector.root (fun () ->
            for _ = 1 to 100 do
              P.wr a 0 1;
              P.wr a 1 1
            done)
        |> fst;
        det
      in
      let opt = run true in
      check bool (hname ^ ": fast path taken") true
        (metric opt "history.write.fastpath" >= 190);
      let ref_ = run false in
      check int (hname ^ ": compat never takes it") 0
        (metric ref_ "history.write.fastpath");
      check int (hname ^ ": identical queries") (ref_.Detector.queries ())
        (opt.Detector.queries ()))
    histories

let () =
  Alcotest.run "fastpath"
    [
      ( "differential",
        [
          Alcotest.test_case "workloads fast=compat" `Quick
            test_workloads_differential;
          Alcotest.test_case "synthetic fast=compat" `Quick
            test_synthetic_differential;
          Alcotest.test_case "4-domain race sets" `Quick
            test_parallel_differential;
          Alcotest.test_case "chaos 4-domain race sets" `Quick
            test_chaos_parallel;
        ] );
      ( "ablation",
        [
          Alcotest.test_case "cp container words" `Quick
            test_cp_container_ablation;
          Alcotest.test_case "write fastpath counter" `Quick
            test_write_fastpath_counter;
        ] );
    ]
