(* Differential tests for the hot-path optimizations (chunked cp store,
   access-history write filter + inline readers + mixed stripe hashing).

   The two history implementations check each other: [`Mutex] keeps its
   readers inline with a direct-mapped write cache in front, [`Lockfree]
   keeps a plain newest-first reader list and no cache. Under a serial
   execution they must be observationally identical — byte-identical race
   reports (location, kind, attributed futures, witness count), identical
   reachability-query totals, and the identical reader high-water mark —
   on every workload and every synthetic program. The perf counters are
   pinned to absolute values. *)

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

(* [`Mutex] and [`Lockfree] must agree on every real workload under
   serial execution (deterministic schedule, so the outcomes must be
   exactly equal, not just race-equivalent) *)
let test_workloads_differential () =
  List.iter
    (fun (w : Workload.t) ->
      let run history =
        let inst = w.Workload.instantiate Workload.Tiny in
        run_full (Sf_order.make ~history ()) inst.Workload.program
      in
      let mutex = run `Mutex in
      check outcome
        (Printf.sprintf "%s mutex = lockfree" w.Workload.name)
        mutex (run `Lockfree);
      check bool
        (Printf.sprintf "%s nonzero queries" w.Workload.name)
        true (mutex.o_queries > 0))
    Registry.all

(* ... and on random synthetic dags, racy and race-free *)
let test_synthetic_differential () =
  List.iter
    (fun race_free ->
      for seed = 1 to 12 do
        let t = Synthetic.generate ~race_free ~seed ~ops:150 ~depth:5 ~locs:8 () in
        let run history =
          let inst = Synthetic.instantiate t in
          run_full ~base:inst.Synthetic.mem_base (Sf_order.make ~history ())
            inst.Synthetic.program
        in
        check outcome
          (Printf.sprintf "seed %d race_free=%b mutex = lockfree" seed race_free)
          (run `Mutex) (run `Lockfree)
      done)
    [ false; true ]

(* under a parallel schedule the witnessed interleaving (hence counts and
   query totals) may differ run to run, but the racy-location set is
   schedule-independent — 4 domains must find the serial run's *)
let racy_set o = List.map (fun (l, _, _, _, _) -> l) o.o_reports

let test_parallel_differential () =
  for seed = 1 to 6 do
    let t = Synthetic.generate ~seed ~ops:200 ~depth:5 ~locs:8 () in
    List.iter
      (fun (history, hname) ->
        let run workers =
          let inst = Synthetic.instantiate t in
          run_full ?workers ~base:inst.Synthetic.mem_base
            (Sf_order.make ~history ())
            inst.Synthetic.program
        in
        check (Alcotest.list int)
          (Printf.sprintf "seed %d %s: 4-domain = serial race set" seed hname)
          (racy_set (run None)) (racy_set (run (Some 4))))
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

(* the cp container stays O(k) words over k nested creates: a store that
   copied its pointer array on every create would charge more than
   k²/2 = 1.1M words at k = 1500 to reach.table.alloc_words on its own.
   The bound leaves room for the Fp_sets tables charged to the same
   counter (about 75k words in total at k = 1500). *)
let test_cp_container_words () =
  let module P = Sfr_runtime.Program in
  let rec create_nest k () =
    if k = 0 then 0
    else begin
      let h = P.create (create_nest (k - 1)) in
      P.work 1;
      P.get h
    end
  in
  let det = Sf_order.make () in
  Serial_exec.run det.Detector.callbacks ~root:det.Detector.root (fun () ->
      ignore (create_nest 1500 ()))
  |> fst;
  match List.assoc_opt "reach.table.alloc_words" (det.Detector.metrics ()) with
  | None -> Alcotest.fail "reach.table.alloc_words not in metrics"
  | Some w ->
      if w >= 200_000 then
        Alcotest.failf "cp container words (%d) not O(k) at k = 1500" w

(* the write filter must absorb consecutive same-strand writes in both
   modes: 100 rounds of (write a.(0); write a.(1)) install each writer
   once, then the other 198 writes each take the filter and run exactly
   one writer-vs-writer query (the counter is what the scaling bench
   reports) *)
let test_write_fastpath_counter () =
  let module P = Sfr_runtime.Program in
  let metric det name =
    match List.assoc_opt name (det.Detector.metrics ()) with
    | Some v -> v
    | None -> 0
  in
  List.iter
    (fun (history, hname) ->
      let a = P.alloc 4 0 in
      let det = Sf_order.make ~history () in
      Serial_exec.run det.Detector.callbacks ~root:det.Detector.root (fun () ->
          for _ = 1 to 100 do
            P.wr a 0 1;
            P.wr a 1 1
          done)
      |> fst;
      check int (hname ^ ": fast path taken") 198
        (metric det "history.write.fastpath");
      check int (hname ^ ": queries") 198 (det.Detector.queries ()))
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
            test_cp_container_words;
          Alcotest.test_case "write fastpath counter" `Quick
            test_write_fastpath_counter;
        ] );
    ]
