(* Differential tests for the hot-path optimizations (chunked cp store,
   access-history write filter + inline readers + mixed stripe hashing).

   The two history implementations check each other: [`Mutex] keeps its
   readers inline in a cell under a stripe lock, [`Lockfree] keeps a
   plain newest-first reader stack in a cell of atomics; both run the
   last-writer filter on an unlocked read of the cell. Under a serial
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
   unlocked last-writer reads, lock-free drains) without injecting faults:
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

let metric det name =
  match List.assoc_opt name (det.Detector.metrics ()) with
  | Some v -> v
  | None -> Alcotest.failf "%s not in metrics" name

(* the cp container stays O(k) words over k nested creates: a store that
   copied its pointer array on every create would charge more than
   k²/2 = 1.1M words at k = 1500 to reach.table.alloc_words on its own.
   A 1500-deep nest is where cp chains would cost k²/2 words too, so
   every future past depth 4 must take the bitmap layout. The bound
   leaves room for the gp tables charged to the same counter. *)
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
  check int "futures past depth 4 take bitmaps" 1496 (metric det "reach.cp.bitmaps");
  let w = metric det "reach.table.alloc_words" in
  if w >= 200_000 then
    Alcotest.failf "cp container words (%d) not O(k) at k = 1500" w

(* [n] futures created by the current strand, each writing a shared cell
   (parallel siblings race) and a private one that its own child reads
   (a cp query the parent's write precedes). Each child also reads a cell
   of [above], written by the creator's ancestors before they created it
   (a cp query deeper in the chain). The creator then gets the last
   future: the last private cell is ordered by that get (a gp query), the
   first is not. *)
let wide_program ?above ~shared ~own n () =
  let module P = Sfr_runtime.Program in
  let hs =
    Array.init n (fun i ->
        P.create (fun () ->
            P.wr shared (i mod 8) i;
            P.wr own i i;
            P.get
              (P.create (fun () ->
                   Option.iter (fun a -> ignore (P.rd a (i mod P.length a))) above;
                   P.rd own i))))
  in
  ignore (P.get hs.(n - 1));
  ignore (P.rd own (n - 1));
  ignore (P.rd own 0)

(* the serial sf-order racy set must equal the naive oracle's verdict on
   a traced run of the same program; [program] allocates fresh cells per
   run and returns their base location *)
let run_against_naive name program =
  let sf = Sf_order.make () in
  let o_sf =
    let base, prog = program () in
    run_full ~base sf prog
  in
  let naive =
    let base, prog = program () in
    let trace, cb, root = Sfr_runtime.Trace.make ~log_accesses:true () in
    let (), _ = Serial_exec.run cb ~root prog in
    let v =
      Sfr_detect.Naive_detector.analyze (Sfr_runtime.Trace.dag trace)
        (Sfr_runtime.Trace.accesses trace)
    in
    List.map (fun l -> l - base) v.Sfr_detect.Naive_detector.racy_locations
  in
  check (Alcotest.list int) (name ^ ": sf-order = naive") naive
    (List.sort_uniq compare (List.map (fun (l, _, _, _, _) -> l) o_sf.o_reports));
  check bool (name ^ ": racy") true (o_sf.o_reports <> []);
  sf

let wide_cells n =
  let module P = Sfr_runtime.Program in
  let shared = P.alloc 8 0 in
  (P.base shared, shared, P.alloc n 0)

(* The root creates 1,500 futures that each create one child. Every cp
   is a chain of one or two IDs: about 10,500 words with headers; the
   rest of the ~20,600 charged is the cp container and one-word gp
   tables. When cp bitmaps were sized by future-ID span, each child's cp
   spanned IDs up to its parent's and this run charged 95,115 words. *)
let test_cp_wide_shallow () =
  let det =
    run_against_naive "wide" (fun () ->
        let base, shared, own = wide_cells 1500 in
        (base, wide_program ~shared ~own 1500))
  in
  check int "no cp bitmaps" 0 (metric det "reach.cp.bitmaps");
  let w = metric det "reach.table.alloc_words" in
  if w >= 25_000 then Alcotest.failf "wide-shallow table words %d >= 25000" w

(* A 20-deep nest whose innermost future runs [wide_program]. The nest
   below depth 5 and the 1,500 wide futures (depth 21, parent ID 20)
   take bitmaps; a wide future's child (depth 22) fits a chain once its
   parent's ID reaches 18 * 63 = 1134, so bitmap parents get chain
   children: 16 + 1500 + 557 bitmaps. Every nest level writes one cell
   of [levels] before creating the next, and the children read them. *)
let test_cp_deep_then_wide () =
  let module P = Sfr_runtime.Program in
  let det =
    run_against_naive "deep-then-wide" (fun () ->
        let base, shared, own = wide_cells 1500 in
        let levels = P.alloc 20 0 in
        let rec nest d () =
          if d = 0 then wide_program ~above:levels ~shared ~own 1500 ()
          else begin
            P.wr levels (d - 1) d;
            P.get (P.create (nest (d - 1)))
          end
        in
        (base, nest 20))
  in
  check int "cp bitmaps" 2073 (metric det "reach.cp.bitmaps")

let test_write_fastpath_counter () =
  let module P = Sfr_runtime.Program in
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

(* Two locations that shared a slot of the retired 2,048-entry write
   cache (equal stripe-mix bits [mix_bits loc 11]): alternating writes
   to them evicted each other there, so each write took the locked path.
   The filter now reads the location's own cell, so both take the fast
   path under the striped modes too, with [`Lockfree]'s reports and
   queries. A spawned child then races the continuation on one of them. *)
let test_write_fastpath_aliasing () =
  let module P = Sfr_runtime.Program in
  let slot loc = (loc * 0x1E37_79B9_7F4A_7C15) lsr (Sys.int_size - 11) in
  let a = P.alloc 2049 0 in
  let first = Hashtbl.create 2049 in
  let rec collide k =
    let s = slot (P.base a + k) in
    match Hashtbl.find_opt first s with
    | Some i -> (i, k)
    | None ->
        Hashtbl.add first s k;
        collide (k + 1)
  in
  let i, j = collide 0 in
  let prog () =
    for _ = 1 to 100 do
      P.wr a i 1;
      P.wr a j 1
    done;
    P.spawn (fun () -> P.wr a i 2);
    P.wr a j 2;
    P.wr a i 3;
    P.sync ()
  in
  let run history =
    let det = Sf_order.make ~history () in
    let o = run_full ~base:(P.base a) det prog in
    (o, metric det "history.write.fastpath")
  in
  let lockfree, _ = run `Lockfree in
  check int "one racy location" 1 (List.length lockfree.o_reports);
  check int "lockfree queries" 201 lockfree.o_queries;
  List.iter
    (fun (history, hname) ->
      let o, fast = run history in
      check int (hname ^ ": aliased writes take the fast path") 198 fast;
      check outcome (hname ^ ": reports and queries = lockfree") lockfree o)
    [ (`Mutex, "mutex"); (`Unsynchronized, "unsynchronized") ]

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
          Alcotest.test_case "cp wide-shallow chains" `Quick test_cp_wide_shallow;
          Alcotest.test_case "cp deep-then-wide layouts" `Quick
            test_cp_deep_then_wide;
          Alcotest.test_case "write fastpath counter" `Quick
            test_write_fastpath_counter;
          Alcotest.test_case "write fastpath aliasing" `Quick
            test_write_fastpath_aliasing;
        ] );
    ]
