(* Detector correctness tests.

   Unit tests pin down the canonical racy/race-free patterns (including
   the future-specific ones: serialization through a get edge, Case-3
   non-ancestor reachability through gp, Case-2 ancestor reachability
   gated by cp). The differential property then checks, over random
   structured programs, that every detector's per-location race verdict —
   under serial AND parallel executions, all configurations — equals the
   ground-truth oracle's. *)

module Dag = Sfr_dag.Dag
module Events = Sfr_runtime.Events
module Program = Sfr_runtime.Program
module Serial_exec = Sfr_runtime.Serial_exec
module Par_exec = Sfr_runtime.Par_exec
module Trace = Sfr_runtime.Trace
module Synthetic = Sfr_workloads.Synthetic
module Detector = Sfr_detect.Detector
module Race = Sfr_detect.Race
module Sf_order = Sfr_detect.Sf_order
module F_order = Sfr_detect.F_order
module Multibags = Sfr_detect.Multibags
module Naive_detector = Sfr_detect.Naive_detector
module Registry = Sfr_detect.Registry
module Workload = Sfr_workloads.Workload
module Wregistry = Sfr_workloads.Registry

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* run [prog] serially under [det]; return racy locations minus [base] *)
let detect_serial det prog ~base =
  let (), _ = Serial_exec.run det.Detector.callbacks ~root:det.Detector.root prog in
  List.map (fun l -> l - base) (Detector.racy_locations det)

let detect_par ~workers det prog ~base =
  let (), _ =
    Par_exec.run ~workers det.Detector.callbacks ~root:det.Detector.root prog
  in
  List.map (fun l -> l - base) (Detector.racy_locations det)

let oracle prog ~base =
  let trace, cb, root = Trace.make ~log_accesses:true () in
  let (), _ = Serial_exec.run cb ~root prog in
  let v = Naive_detector.analyze (Trace.dag trace) (Trace.accesses trace) in
  List.map (fun l -> l - base) v.Naive_detector.racy_locations

let all_detectors () =
  [
    ("sf-order", Sf_order.make (), true);
    ("sf-order/2pf", Sf_order.make ~readers:`Two_per_future (), true);
    ("sf-order/hashed", Sf_order.make ~sets:`Hashed (), true);
    ("f-order", F_order.make (), true);
    ("multibags", Multibags.make (), false);
  ]

(* ------------------------------------------------------------------ *)
(* Canonical patterns                                                   *)
(* ------------------------------------------------------------------ *)

(* two parallel writes: race *)
let prog_parallel_writes a () =
  Program.spawn (fun () -> Program.wr a 0 1);
  Program.wr a 0 2;
  Program.sync ()

let test_parallel_writes () =
  List.iter
    (fun (name, det, _) ->
      let a = Program.alloc 1 0 in
      let racy = detect_serial det (prog_parallel_writes a) ~base:(Program.base a) in
      check (Alcotest.list int) (name ^ ": WW race found") [ 0 ] racy)
    (all_detectors ())

(* write then sync then read: no race *)
let prog_sync_serializes a () =
  Program.spawn (fun () -> Program.wr a 0 1);
  Program.sync ();
  ignore (Program.rd a 0)

let test_sync_serializes () =
  List.iter
    (fun (name, det, _) ->
      let a = Program.alloc 1 0 in
      let racy = detect_serial det (prog_sync_serializes a) ~base:(Program.base a) in
      check (Alcotest.list int) (name ^ ": no race across sync") [] racy)
    (all_detectors ())

(* read before sync races the spawned write *)
let prog_read_races_write a () =
  Program.spawn (fun () -> Program.wr a 0 1);
  ignore (Program.rd a 0);
  Program.sync ()

let test_read_races_write () =
  List.iter
    (fun (name, det, _) ->
      let a = Program.alloc 1 0 in
      let racy = detect_serial det (prog_read_races_write a) ~base:(Program.base a) in
      check (Alcotest.list int) (name ^ ": RW race") [ 0 ] racy)
    (all_detectors ())

(* a get edge serializes the future's write against the reader *)
let prog_get_serializes a () =
  let h = Program.create (fun () -> Program.wr a 0 1) in
  ignore (Program.get h);
  ignore (Program.rd a 0)

let test_get_serializes () =
  List.iter
    (fun (name, det, _) ->
      let a = Program.alloc 1 0 in
      let racy = detect_serial det (prog_get_serializes a) ~base:(Program.base a) in
      check (Alcotest.list int) (name ^ ": get serializes") [] racy)
    (all_detectors ())

(* without the get, the future's write races the read *)
let prog_future_races a () =
  let _h = Program.create (fun () -> Program.wr a 0 1) in
  ignore (Program.rd a 0)

let test_future_races () =
  List.iter
    (fun (name, det, _) ->
      let a = Program.alloc 1 0 in
      let racy = detect_serial det (prog_future_races a) ~base:(Program.base a) in
      check (Alcotest.list int) (name ^ ": ungotten future races") [ 0 ] racy)
    (all_detectors ())

(* Case 3 (gp): F's write reaches a non-descendant reader via the get in
   the root; no race. Sibling futures with a get-chained dependence. *)
let prog_case3_serial a () =
  let f = Program.create (fun () -> Program.wr a 0 1) in
  ignore (Program.get f);
  let g = Program.create (fun () -> ignore (Program.rd a 0)) in
  ignore (Program.get g)

let test_case3_serializes () =
  List.iter
    (fun (name, det, _) ->
      let a = Program.alloc 1 0 in
      let racy = detect_serial det (prog_case3_serial a) ~base:(Program.base a) in
      check (Alcotest.list int) (name ^ ": case-3 serialization via gp") [] racy)
    (all_detectors ())

(* sibling futures with no dependence: race *)
let prog_case3_race a () =
  let f = Program.create (fun () -> Program.wr a 0 1) in
  let g = Program.create (fun () -> ignore (Program.rd a 0)) in
  ignore (Program.get f);
  ignore (Program.get g)

let test_case3_races () =
  List.iter
    (fun (name, det, _) ->
      let a = Program.alloc 1 0 in
      let racy = detect_serial det (prog_case3_race a) ~base:(Program.base a) in
      check (Alcotest.list int) (name ^ ": sibling futures race") [ 0 ] racy)
    (all_detectors ())

(* Case 2 (cp + pseudo-SP-dag): ancestor future writes before creating a
   descendant that reads — serialized through the create path. *)
let prog_case2_serial a () =
  Program.wr a 0 1;
  let f =
    Program.create (fun () ->
        let g = Program.create (fun () -> ignore (Program.rd a 0)) in
        ignore (Program.get g))
  in
  ignore (Program.get f)

let test_case2_serializes () =
  List.iter
    (fun (name, det, _) ->
      let a = Program.alloc 1 0 in
      let racy = detect_serial det (prog_case2_serial a) ~base:(Program.base a) in
      check (Alcotest.list int) (name ^ ": case-2 serialization") [] racy)
    (all_detectors ())

(* Case 2 race: the ancestor writes *after* creating the reading
   descendant (in its continuation), which is parallel with it. *)
let prog_case2_race a () =
  let f =
    Program.create (fun () ->
        let _g = Program.create (fun () -> ignore (Program.rd a 0)) in
        Program.wr a 0 1)
  in
  ignore (Program.get f)

let test_case2_races () =
  List.iter
    (fun (name, det, _) ->
      let a = Program.alloc 1 0 in
      let racy = detect_serial det (prog_case2_race a) ~base:(Program.base a) in
      check (Alcotest.list int) (name ^ ": descendant races continuation") [ 0 ] racy)
    (all_detectors ())

(* phantom-path guard: the pseudo-SP-dag has a path from a future's last
   node to the creating frame's sync, but the real dag does not. A strand
   after that sync must still race with the ungotten future's write. *)
let prog_phantom_guard a () =
  Program.spawn (fun () -> ());
  let _h = Program.create (fun () -> Program.wr a 0 1) in
  Program.sync ();
  (* fake join would claim the future completed before this read *)
  ignore (Program.rd a 0)

let test_phantom_guard () =
  List.iter
    (fun (name, det, _) ->
      let a = Program.alloc 1 0 in
      let racy = detect_serial det (prog_phantom_guard a) ~base:(Program.base a) in
      check (Alcotest.list int) (name ^ ": phantom path rejected") [ 0 ] racy)
    (all_detectors ())

(* ------------------------------------------------------------------ *)
(* Parallel execution of the canonical patterns                          *)
(* ------------------------------------------------------------------ *)

let test_parallel_patterns () =
  let patterns =
    [
      ("WW race", prog_parallel_writes, [ 0 ]);
      ("sync serializes", prog_sync_serializes, ([] : int list));
      ("get serializes", prog_get_serializes, []);
      ("case3 serial", prog_case3_serial, []);
      ("case3 race", prog_case3_race, [ 0 ]);
      ("case2 serial", prog_case2_serial, []);
      ("phantom guard", prog_phantom_guard, [ 0 ]);
    ]
  in
  List.iter
    (fun workers ->
      List.iter
        (fun (pname, prog, expected) ->
          List.iter
            (fun (dname, det, parallel_ok) ->
              if parallel_ok then begin
                let a = Program.alloc 1 0 in
                let racy = detect_par ~workers det (prog a) ~base:(Program.base a) in
                check (Alcotest.list int)
                  (Printf.sprintf "%s under %s (P=%d)" pname dname workers)
                  expected racy
              end)
            (all_detectors ()))
        patterns)
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Differential property against the oracle                             *)
(* ------------------------------------------------------------------ *)

let gen_seed = QCheck2.Gen.int_bound 1_000_000

let differential_test ~name ~count ~runs =
  QCheck2.Test.make ~name ~count gen_seed (fun seed ->
      let t = Synthetic.generate ~seed ~ops:90 ~depth:5 ~locs:10 () in
      let inst = Synthetic.instantiate t in
      let expected = oracle inst.Synthetic.program ~base:inst.Synthetic.mem_base in
      List.for_all
        (fun run ->
          let inst = Synthetic.instantiate t in
          run inst = expected)
        runs)

let prop_serial_differential =
  differential_test ~name:"all detectors = oracle (serial)" ~count:120
    ~runs:
      (List.map
         (fun make (inst : Synthetic.instance) ->
           detect_serial (make ()) inst.Synthetic.program
             ~base:inst.Synthetic.mem_base)
         [
           (fun () -> Sf_order.make ~history:`Mutex ());
           (fun () -> Sf_order.make ~readers:`Two_per_future ());
           (fun () -> Sf_order.make ~sets:`Hashed ());
           (fun () -> Sf_order.make ~history:`Unsynchronized ());
           (fun () -> Sf_order.make ~history:`Lockfree ());
           (fun () -> F_order.make ~history:`Mutex ());
           (fun () -> F_order.make ~history:`Unsynchronized ());
           (fun () -> F_order.make ~history:`Lockfree ());
           (fun () -> Multibags.make ());
         ])

let prop_parallel_differential =
  differential_test ~name:"parallel detectors = oracle (P in 1..3)" ~count:60
    ~runs:
      (List.concat_map
         (fun workers ->
           List.map
             (fun make (inst : Synthetic.instance) ->
               detect_par ~workers (make ()) inst.Synthetic.program
                 ~base:inst.Synthetic.mem_base)
             [
               (fun () -> Sf_order.make ~history:`Mutex ());
               (fun () -> Sf_order.make ~readers:`Two_per_future ());
               (fun () -> Sf_order.make ~history:`Lockfree ());
               (fun () -> F_order.make ~history:`Lockfree ());
               (fun () -> F_order.make ~history:`Mutex ());
             ])
         [ 1; 2; 3 ])

(* The 2k-reader bound: with the Two_per_future policy, at most 2 readers
   per (location, future), hence <= 2k per location overall. *)
let prop_reader_bound =
  QCheck2.Test.make ~name:"Two_per_future stores <= 2k readers per location"
    ~count:80 gen_seed (fun seed ->
      let t = Synthetic.generate ~seed ~ops:120 ~depth:5 ~locs:4 () in
      let inst = Synthetic.instantiate t in
      let det = Sf_order.make ~readers:`Two_per_future () in
      let _ = detect_serial det inst.Synthetic.program ~base:0 in
      let _, futures, _ = Synthetic.stats t in
      det.Detector.max_readers () <= 2 * (futures + 1))

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_serial_differential; prop_parallel_differential; prop_reader_bound ]


(* ------------------------------------------------------------------ *)
(* Structured-use discipline checker                                    *)
(* ------------------------------------------------------------------ *)

module Discipline = Sfr_detect.Discipline

let run_discipline prog =
  let d = Discipline.make () in
  let (), _ =
    Serial_exec.run d.Discipline.callbacks ~root:d.Discipline.root prog
  in
  d.Discipline.violations ()

let test_discipline_clean_patterns () =
  List.iter
    (fun (name, prog) ->
      let a = Program.alloc 1 0 in
      check int (name ^ ": no violation") 0 (List.length (run_discipline (prog a))))
    [
      ("get serializes", prog_get_serializes);
      ("case3 serial", prog_case3_serial);
      ("case2 serial", prog_case2_serial);
      ("phantom guard", prog_phantom_guard);
    ]

(* a handle smuggled between parallel spawn branches through a side cell:
   runs fine serially, but the get is unreachable from the create's
   continuation — exactly the unstructured use the checker must flag *)
let test_discipline_flags_smuggled_handle () =
  let prog () =
    let cell : int Program.handle option Atomic.t = Atomic.make None in
    Program.spawn (fun () ->
        let h = Program.create (fun () -> 1) in
        Atomic.set cell (Some h));
    Program.spawn (fun () ->
        match Atomic.get cell with
        | Some h -> ignore (Program.get h)
        | None -> ());
    Program.sync ()
  in
  match run_discipline prog with
  | [ v ] ->
      check Alcotest.bool "flags the smuggled future" true (v.Discipline.future > 0)
  | vs -> Alcotest.failf "expected exactly one violation, got %d" (List.length vs)

let prop_discipline_accepts_structured =
  QCheck2.Test.make ~name:"discipline checker accepts structured programs"
    ~count:120 gen_seed (fun seed ->
      let t = Synthetic.generate ~seed ~ops:120 ~depth:5 ~locs:8 () in
      let inst = Synthetic.instantiate t in
      run_discipline inst.Synthetic.program = [])

(* Discipline and SF-Order composed through Events.pair: both clients see
   the same run; the detector still matches the oracle *)
let test_discipline_pairs_with_detector () =
  let t = Synthetic.generate ~seed:1234 ~ops:120 ~depth:5 ~locs:8 () in
  let inst = Synthetic.instantiate t in
  let expected = oracle inst.Synthetic.program ~base:inst.Synthetic.mem_base in
  let inst = Synthetic.instantiate t in
  let d = Discipline.make () in
  let det = Sf_order.make () in
  let cb = Events.pair d.Discipline.callbacks det.Detector.callbacks in
  let (), _ =
    Serial_exec.run cb
      ~root:(Events.Pair_state (d.Discipline.root, det.Detector.root))
      inst.Synthetic.program
  in
  check int "no violations" 0 (List.length (d.Discipline.violations ()));
  check (Alcotest.list int) "paired detector still matches oracle" expected
    (List.map
       (fun l -> l - inst.Synthetic.mem_base)
       (Detector.racy_locations det))


(* ------------------------------------------------------------------ *)
(* Soundness at scale: race-free programs yield zero reports            *)
(* ------------------------------------------------------------------ *)

let prop_race_free_soundness =
  QCheck2.Test.make ~name:"race-free programs: no detector reports anything"
    ~count:80 gen_seed (fun seed ->
      let t = Synthetic.generate ~race_free:true ~seed ~ops:120 ~depth:5 ~locs:6 () in
      List.for_all
        (fun (make, parallel) ->
          let det : Detector.t = make () in
          let inst = Synthetic.instantiate t in
          let (), _ =
            if parallel then
              Par_exec.run ~workers:2 det.Detector.callbacks
                ~root:det.Detector.root inst.Synthetic.program
            else
              Serial_exec.run det.Detector.callbacks ~root:det.Detector.root
                inst.Synthetic.program
          in
          Detector.racy_locations det = [])
        [
          ((fun () -> Sf_order.make ()), false);
          ((fun () -> Sf_order.make ~readers:`Two_per_future ()), false);
          ((fun () -> Multibags.make ()), false);
          ((fun () -> F_order.make ()), false);
          ((fun () -> Sf_order.make ~history:`Mutex ()), true);
          ((fun () -> Sf_order.make ~history:`Lockfree ()), true);
          ((fun () -> F_order.make ~history:`Mutex ()), true);
          ((fun () -> F_order.make ~history:`Lockfree ()), true);
        ])

(* ------------------------------------------------------------------ *)
(* SF-Order's Precedes = full-dag reachability, for all strand pairs    *)
(* ------------------------------------------------------------------ *)

(* wrap callbacks so every produced strand state is collected *)
let collecting (cb : Events.callbacks) collect =
  {
    cb with
    Events.on_spawn =
      (fun s ->
        let a, b = cb.Events.on_spawn s in
        collect a;
        collect b;
        (a, b));
    on_create =
      (fun s ->
        let a, b = cb.Events.on_create s in
        collect a;
        collect b;
        (a, b));
    on_sync =
      (fun ~cur ~spawned_lasts ~created_firsts ->
        let r = cb.Events.on_sync ~cur ~spawned_lasts ~created_firsts in
        collect r;
        r);
    on_get =
      (fun ~cur ~put ->
        let r = cb.Events.on_get ~cur ~put in
        collect r;
        r);
  }

let prop_sf_precedes_is_reachability =
  QCheck2.Test.make
    ~name:"sf-order Precedes = ground-truth SF-dag reachability" ~count:60
    gen_seed (fun seed ->
      let t = Synthetic.generate ~seed ~ops:90 ~depth:5 ~locs:8 () in
      let inst = Synthetic.instantiate t in
      let trace, trace_cb, trace_root = Trace.make () in
      let det, precedes = Sf_order.make_with_precedes () in
      let states = ref [] in
      let collect = function
        | Events.Pair_state (tr, sf) -> states := (Trace.node_of tr, sf) :: !states
        | _ -> ()
      in
      let cb = collecting (Events.pair trace_cb det.Detector.callbacks) collect in
      let root = Events.Pair_state (trace_root, det.Detector.root) in
      collect root;
      let (), _ = Serial_exec.run cb ~root inst.Synthetic.program in
      let oracle = Sfr_dag.Dag_algo.build_oracle (Trace.dag trace) Sfr_dag.Dag_algo.Full in
      List.for_all
        (fun (nu, su) ->
          List.for_all
            (fun (nv, sv) ->
              nu = nv
              || precedes su sv = Sfr_dag.Dag_algo.precedes oracle nu nv)
            !states)
        !states)

(* deep differential sweep: larger programs, all detectors, run as a
   single slow case *)
let test_deep_differential () =
  for seed = 1000 to 1011 do
    let t = Synthetic.generate ~seed ~ops:600 ~depth:7 ~locs:24 () in
    let inst = Synthetic.instantiate t in
    let expected = oracle inst.Synthetic.program ~base:inst.Synthetic.mem_base in
    List.iter
      (fun (name, make) ->
        let det : Detector.t = make () in
        let inst = Synthetic.instantiate t in
        let (), _ =
          Serial_exec.run det.Detector.callbacks ~root:det.Detector.root
            inst.Synthetic.program
        in
        Alcotest.(check (list int))
          (Printf.sprintf "%s seed %d" name seed)
          expected
          (List.map
             (fun l -> l - inst.Synthetic.mem_base)
             (Detector.racy_locations det)))
      [
        ("sf-order", fun () -> Sf_order.make ());
        ("sf-order/2pf", fun () -> Sf_order.make ~readers:`Two_per_future ());
        ("f-order", fun () -> F_order.make ());
        ("multibags", fun () -> Multibags.make ());
      ]
  done

(* SF-Order stripes its query count by domain ID mod 128. Spawn domains
   one at a time until one lands on the main domain's stripe, then query
   from both domains at once: no increment may be lost. *)
let test_query_count_shared_stripe () =
  let det, precedes = Sf_order.make_with_precedes () in
  let child, cont = det.Detector.callbacks.Events.on_spawn det.Detector.root in
  let stripe () = (Domain.self () :> int) land 127 in
  let main = stripe () in
  let n = 2_000_000 in
  let hammer () =
    for _ = 1 to n do
      ignore (precedes child cont)
    done
  in
  let before = det.Detector.queries () in
  (* state: 0 probing, 1 other stripe, 2 shared stripe, 3 go *)
  let rec find tries =
    if tries = 0 then Alcotest.fail "no domain landed on the main stripe";
    let state = Atomic.make 0 in
    let d =
      Domain.spawn (fun () ->
          if stripe () <> main then Atomic.set state 1
          else begin
            Atomic.set state 2;
            while Atomic.get state <> 3 do
              Domain.cpu_relax ()
            done;
            hammer ()
          end)
    in
    while Atomic.get state = 0 do
      Domain.cpu_relax ()
    done;
    if Atomic.get state = 2 then begin
      Atomic.set state 3;
      hammer ()
    end;
    Domain.join d;
    if Atomic.get state = 1 then find (tries - 1)
  in
  find 1024;
  check int "every concurrent query counted" (before + (2 * n))
    (det.Detector.queries ())

(* ------------------------------------------------------------------ *)
(* Registry                                                             *)
(* ------------------------------------------------------------------ *)

let builtin_names = [ "multibags"; "f-order"; "sf-order"; "sf-order-2pf" ]

let test_registry_builtins () =
  check (Alcotest.list Alcotest.string) "names in presentation order"
    builtin_names (Registry.names ());
  List.iter
    (fun n ->
      match Registry.find n with
      | Some e -> check Alcotest.string "entry name" n e.Registry.name
      | None -> Alcotest.failf "find %s returned None" n)
    builtin_names;
  check bool "unknown name misses" true (Registry.find "no-such" = None)

let test_registry_caps () =
  let caps n =
    match Registry.find n with
    | Some e -> e.Registry.caps
    | None -> Alcotest.failf "missing entry %s" n
  in
  check bool "multibags is serial" false
    (caps "multibags").Registry.supports_parallel;
  check bool "sf-order is a figure column" true (caps "sf-order").Registry.figure;
  check bool "sf-order runs parallel" true
    (caps "sf-order").Registry.supports_parallel;
  check bool "sf-order-2pf is not a figure column" false
    (caps "sf-order-2pf").Registry.figure

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_registry_listing () =
  let l = Registry.listing () in
  List.iter
    (fun n ->
      check bool (Printf.sprintf "listing mentions %s" n) true (contains l n))
    builtin_names;
  check bool "listing shows caps" true (contains l "parallel");
  check bool "unknown message embeds listing" true
    (contains (Registry.unknown "zzz") "sf-order-2pf")

let test_registry_unique_names () =
  let names = Registry.names () in
  check int "no duplicate names"
    (List.length names)
    (List.length (List.sort_uniq compare names))

(* every registered detector must run every registry workload at tiny
   scale — the in-process version of `make detector-smoke`. A detector
   added to the registry but broken on a basic workload fails here, not
   silently in a skipped CI lane. *)
let test_registry_matrix_smoke () =
  List.iter
    (fun (e : Registry.entry) ->
      List.iter
        (fun (w : Workload.t) ->
          let det = e.Registry.make () in
          let inst = w.Workload.instantiate Workload.Tiny in
          let name = Printf.sprintf "%s/%s" e.Registry.name w.Workload.name in
          check (Alcotest.list int) (name ^ " is race-free") []
            (detect_serial det inst.Workload.program
               ~base:inst.Workload.mem_base);
          check bool (name ^ " performed queries") true
            (det.Detector.queries () > 0))
        Wregistry.all)
    (Registry.all ())

(* sf-order against the naive oracle at 2000 ops, under both history
   implementations *)
let test_sf_naive_large_scale () =
  List.iter
    (fun (history, hname) ->
      for seed = 1 to 6 do
        let t = Synthetic.generate ~seed ~ops:2000 ~depth:6 ~locs:10 () in
        let run f =
          let inst = Synthetic.instantiate t in
          f inst.Synthetic.program ~base:inst.Synthetic.mem_base
        in
        check (Alcotest.list int)
          (Printf.sprintf "seed %d %s: sf-order = naive" seed hname)
          (run oracle)
          (run (detect_serial (Sf_order.make ~history ())))
      done)
    [ (`Mutex, "mutex"); (`Lockfree, "lockfree") ]

let () =
  Alcotest.run "detect"
    [
      ( "patterns",
        [
          Alcotest.test_case "parallel writes race" `Quick test_parallel_writes;
          Alcotest.test_case "sync serializes" `Quick test_sync_serializes;
          Alcotest.test_case "read races write" `Quick test_read_races_write;
          Alcotest.test_case "get serializes" `Quick test_get_serializes;
          Alcotest.test_case "ungotten future races" `Quick test_future_races;
          Alcotest.test_case "case 3 serializes" `Quick test_case3_serializes;
          Alcotest.test_case "case 3 races" `Quick test_case3_races;
          Alcotest.test_case "case 2 serializes" `Quick test_case2_serializes;
          Alcotest.test_case "case 2 races" `Quick test_case2_races;
          Alcotest.test_case "phantom path guard" `Quick test_phantom_guard;
        ] );
      ( "parallel-exec",
        [ Alcotest.test_case "patterns under parallel execution" `Quick test_parallel_patterns ] );
      ( "queries",
        [
          Alcotest.test_case "count exact on a shared stripe" `Quick
            test_query_count_shared_stripe;
        ] );
      ("differential", qtests);
      ( "deep",
        [ Alcotest.test_case "600-op differential sweep" `Slow test_deep_differential ] );
      ( "strengthened",
        [
          QCheck_alcotest.to_alcotest prop_race_free_soundness;
          QCheck_alcotest.to_alcotest prop_sf_precedes_is_reachability;
        ] );
      ( "discipline",
        [
          Alcotest.test_case "clean patterns" `Quick test_discipline_clean_patterns;
          Alcotest.test_case "flags smuggled handle" `Quick
            test_discipline_flags_smuggled_handle;
          Alcotest.test_case "pairs with detector" `Quick
            test_discipline_pairs_with_detector;
          QCheck_alcotest.to_alcotest prop_discipline_accepts_structured;
        ] );
      ( "registry",
        [
          Alcotest.test_case "builtins" `Quick test_registry_builtins;
          Alcotest.test_case "caps" `Quick test_registry_caps;
          Alcotest.test_case "listing" `Quick test_registry_listing;
          Alcotest.test_case "unique names" `Quick test_registry_unique_names;
          Alcotest.test_case "matrix smoke" `Quick test_registry_matrix_smoke;
        ] );
      ( "sf-vs-naive",
        [
          Alcotest.test_case "large-scale serial" `Quick
            test_sf_naive_large_scale;
        ] );
    ]
