(* Robustness and concurrency stress: the multicore executor under deep
   nesting, wide fan-out and worker churn; the order-maintenance lists and
   the lock-free access history hammered from multiple domains; and the
   small support modules not covered elsewhere. *)

module Om = Sfr_om.Om
module Vec = Sfr_support.Vec
module Mem_meter = Sfr_support.Mem_meter
module Program = Sfr_runtime.Program
module Serial_exec = Sfr_runtime.Serial_exec
module Par_exec = Sfr_runtime.Par_exec
module Events = Sfr_runtime.Events
module Synthetic = Sfr_workloads.Synthetic
module Workload = Sfr_workloads.Workload
module Workloads = Sfr_workloads.Registry
module Detector = Sfr_detect.Detector
module Sf_order = Sfr_detect.Sf_order
module Access_history = Sfr_detect.Access_history
module Detect_error = Sfr_detect.Detect_error

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Par_exec robustness                                                  *)
(* ------------------------------------------------------------------ *)

(* deep create nesting exercises frame bookkeeping and handle chains *)
let test_par_deep_nest () =
  let rec nest k () = if k = 0 then 0 else 1 + Program.get (Program.create (nest (k - 1))) in
  List.iter
    (fun workers ->
      let r, _ =
        Par_exec.run ~workers Events.null ~root:Events.Unit_state (fun () -> nest 300 ())
      in
      check int (Printf.sprintf "depth 300 (P=%d)" workers) 300 r)
    [ 1; 2; 4 ]

(* wide fan-out: many spawned tasks racing to a single sync *)
let test_par_wide_fan () =
  let prog () =
    let acc = Atomic.make 0 in
    for _ = 1 to 500 do
      Program.spawn (fun () -> Atomic.incr acc)
    done;
    Program.sync ();
    Atomic.get acc
  in
  List.iter
    (fun workers ->
      let r, _ = Par_exec.run ~workers Events.null ~root:Events.Unit_state prog in
      check int (Printf.sprintf "fan 500 (P=%d)" workers) 500 r)
    [ 1; 2; 8 ]

(* many escaped futures must all complete before run returns *)
let test_par_escaped_flood () =
  let acc = Atomic.make 0 in
  let prog () =
    for _ = 1 to 200 do
      ignore (Program.create (fun () -> Atomic.incr acc))
    done
  in
  let (), _ = Par_exec.run ~workers:4 Events.null ~root:Events.Unit_state prog in
  check int "all escaped futures ran" 200 (Atomic.get acc)

(* exceptions thrown inside a future body surface from run *)
let test_par_future_exception () =
  Alcotest.check_raises "future exception" (Failure "future-boom") (fun () ->
      ignore
        (Par_exec.run ~workers:2 Events.null ~root:Events.Unit_state (fun () ->
             let h = Program.create (fun () -> failwith "future-boom") in
             ignore (Program.get h))))

(* back-to-back runs reuse domain-local state safely *)
let test_par_sequential_runs () =
  for i = 1 to 5 do
    let r, _ =
      Par_exec.run ~workers:2 Events.null ~root:Events.Unit_state (fun () ->
          let h = Program.create (fun () -> i * 10) in
          Program.get h)
    in
    check int "run result" (i * 10) r
  done

(* a bigger synthetic program under parallel detection, several times:
   verdicts must be schedule-independent *)
let test_par_detection_stable () =
  let t = Synthetic.generate ~seed:99 ~ops:300 ~depth:6 ~locs:16 () in
  let verdict workers =
    let det = Sf_order.make () in
    let inst = Synthetic.instantiate t in
    let (), _ =
      Par_exec.run ~workers det.Detector.callbacks ~root:det.Detector.root
        inst.Synthetic.program
    in
    List.map (fun l -> l - inst.Synthetic.mem_base) (Detector.racy_locations det)
  in
  let reference = verdict 1 in
  for _ = 1 to 3 do
    check (Alcotest.list int) "stable verdict (P=3)" reference (verdict 3)
  done

(* ------------------------------------------------------------------ *)
(* OM under multi-domain mutation                                       *)
(* ------------------------------------------------------------------ *)

let test_om_concurrent_inserts () =
  let t, base = Om.create () in
  (* each domain owns a private anchor and hammers inserts after it *)
  let anchors = List.init 4 (fun _ -> Om.insert_after t base) in
  let domains =
    List.map
      (fun anchor ->
        Domain.spawn (fun () ->
            let cur = ref anchor in
            for i = 1 to 3_000 do
              if i mod 3 = 0 then cur := Om.insert_after t !cur
              else ignore (Om.insert_after t !cur)
            done))
      anchors
  in
  List.iter Domain.join domains;
  Om.check_invariants t;
  check int "all inserted" (1 + 4 + (4 * 3_000)) (Om.size t);
  (* anchor order is preserved: anchors were inserted right after base in
     reverse order *)
  let rec pairwise = function
    | a :: (b :: _ as rest) ->
        check bool "later anchors precede earlier" true (Om.precedes t b a);
        pairwise rest
    | _ -> ()
  in
  pairwise anchors

(* ------------------------------------------------------------------ *)
(* Lock-free access history under concurrency                           *)
(* ------------------------------------------------------------------ *)

let test_lockfree_history_stress () =
  let checks = Atomic.make 0 in
  (* location 999 is touched only after the domains join: its checks are
     serial and recorded *)
  let seen = ref [] in
  let check_pair prev _cur loc _kind =
    Atomic.incr checks;
    if loc = 999 then seen := prev :: !seen
  in
  let h =
    Access_history.create ~sync:`Lockfree ~none:(-1) ~check:check_pair Access_history.Keep_all
  in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to 4_999 do
              let loc = i mod 32 in
              if (i + d) mod 4 = 0 then
                Access_history.on_write h ~loc ~accessor:(d * 100_000 + i)
              else Access_history.on_read h ~loc ~accessor:(d * 100_000 + i)
            done))
  in
  List.iter Domain.join domains;
  check bool "many checks fired" true (Atomic.get checks > 1_000);
  check int "locations tracked" 32 (Access_history.locations_tracked h);
  (* the completeness skeleton: after a quiescent write, a later read must
     be checked against it *)
  Access_history.on_write h ~loc:999 ~accessor:1;
  Access_history.on_read h ~loc:999 ~accessor:2;
  check (Alcotest.list int) "writer visible to later reader" [ 1 ] !seen

let test_lockfree_sparse_locations () =
  (* far-apart locations in the paged table *)
  let seen = ref [] in
  let h =
    Access_history.create ~sync:`Lockfree ~none:(-1)
      ~check:(fun prev _ _ _ -> seen := prev :: !seen)
      Access_history.Keep_all
  in
  List.iter
    (fun loc -> Access_history.on_write h ~loc ~accessor:loc)
    [ 0; 1_000; 50_000; 200_000 ];
  check int "four cells" 4 (Access_history.locations_tracked h);
  Access_history.on_read h ~loc:200_000 ~accessor:7;
  check (Alcotest.list int) "far cell intact" [ 200_000 ] !seen

(* Memory stays proportional to the locations touched whatever order
   the workers reach them in: a help-first schedule touches sort's
   arrays out of allocation order, walking the table downward. Default
   scale, so the walk spans many pages. *)
let test_lockfree_parallel_words () =
  let sort = Option.get (Workloads.find "sort") in
  let history_words exec =
    let det = Sf_order.make ~history:`Lockfree () in
    let inst = sort.Workload.instantiate Workload.Default in
    exec det inst.Workload.program;
    check bool "sorted" true (inst.Workload.verify ());
    det.Detector.history_words ()
  in
  let serial =
    history_words (fun det prog ->
        ignore (Serial_exec.run det.Detector.callbacks ~root:det.Detector.root prog))
  in
  let parallel =
    history_words (fun det prog ->
        ignore
          (Par_exec.run ~workers:2 det.Detector.callbacks ~root:det.Detector.root prog))
  in
  if 2 * parallel > 3 * serial then
    Alcotest.failf "2-worker history %d words, serial %d: over 1.5x" parallel serial

let test_lockfree_rejects_lr () =
  Alcotest.check_raises "lockfree requires keep-all"
    (Detect_error.Error
       (Detect_error.Unsupported
          {
            detector = "Access_history";
            feature = "`Lockfree with Lr_per_future (requires Keep_all)";
          }))
    (fun () ->
      ignore
        (Access_history.create ~sync:`Lockfree ~none:(-1)
           ~check:(fun _ _ _ _ -> ())
           (Access_history.Lr_per_future
              {
                future_of = (fun (_ : int) -> 0);
                more_left = (fun _ _ -> false);
                more_right = (fun _ _ -> false);
                covers = (fun _ _ -> false);
              })))

(* ------------------------------------------------------------------ *)
(* Support modules: Vec, Mem_meter                                      *)
(* ------------------------------------------------------------------ *)

let test_vec () =
  let v = Vec.create ~dummy:(-1) () in
  check int "empty" 0 (Vec.length v);
  for i = 0 to 99 do
    check int "push index" i (Vec.push v (i * 2))
  done;
  check int "length" 100 (Vec.length v);
  check int "get" 84 (Vec.get v 42);
  Vec.set v 42 (-5);
  check int "set" (-5) (Vec.get v 42);
  check int "fold" (List.fold_left ( + ) 0 (Vec.to_list v)) (Vec.fold ( + ) 0 v);
  let seen = ref 0 in
  Vec.iteri (fun i x -> if i = 7 then seen := x) v;
  check int "iteri" 14 !seen;
  Alcotest.check_raises "bounds" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.get v 100));
  check bool "words >= length" true (Vec.words v >= Vec.length v)

let test_mem_meter () =
  check int "bytes per word" (Sys.word_size / 8) (Mem_meter.bytes_of_words 1);
  check bool "mib" true (abs_float (Mem_meter.mib_of_words (1024 * 1024 / 8) -. 1.0) < 0.01);
  let fmt w = Format.asprintf "%a" Mem_meter.pp_bytes w in
  check bool "B" true (String.length (fmt 1) > 0);
  check bool "KiB rendered" true
    (let s = fmt 1024 in
     String.length s >= 3 && String.sub s (String.length s - 3) 3 = "KiB");
  check bool "heap probe positive" true (Mem_meter.heap_live_words () > 0)

let () =
  Alcotest.run "stress"
    [
      ( "par_exec",
        [
          Alcotest.test_case "deep nest" `Quick test_par_deep_nest;
          Alcotest.test_case "wide fan" `Quick test_par_wide_fan;
          Alcotest.test_case "escaped flood" `Quick test_par_escaped_flood;
          Alcotest.test_case "future exception" `Quick test_par_future_exception;
          Alcotest.test_case "sequential runs" `Quick test_par_sequential_runs;
          Alcotest.test_case "stable detection" `Quick test_par_detection_stable;
        ] );
      ("om", [ Alcotest.test_case "concurrent inserts" `Quick test_om_concurrent_inserts ]);
      ( "lockfree_history",
        [
          Alcotest.test_case "stress" `Quick test_lockfree_history_stress;
          Alcotest.test_case "sparse locations" `Quick test_lockfree_sparse_locations;
          Alcotest.test_case "parallel sort words" `Quick test_lockfree_parallel_words;
          Alcotest.test_case "rejects Lr policy" `Quick test_lockfree_rejects_lr;
        ] );
      ( "support",
        [
          Alcotest.test_case "vec" `Quick test_vec;
          Alcotest.test_case "mem_meter" `Quick test_mem_meter;
        ] );
    ]
