(* Direct unit tests for the detector substrate pieces not fully pinned by
   the differential tests: the access history's policies and update rules,
   the race collector, the exit maps, and the Events.pair combinator. *)

module Access_history = Sfr_detect.Access_history
module Race = Sfr_detect.Race
module Exit_map = Sfr_reach.Exit_map
module Events = Sfr_runtime.Events

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let float = Alcotest.float

(* ------------------------------------------------------------------ *)
(* Access history — Keep_all                                            *)
(* ------------------------------------------------------------------ *)

(* A history whose create-time check logs each call's stored access and
   whether that access was a write; [take log] returns the calls since
   the last [take], oldest first. *)
let logged ~none sync policy =
  let log = ref [] in
  let check prev _cur _loc kind = log := (prev, kind <> Race.Read_write) :: !log in
  (Access_history.create ~sync ~none ~check policy, log)

let take log =
  let calls = List.rev !log in
  log := [];
  calls

(* toy accessors: integers compared by a fake "dag order" where a < b
   means a precedes b; -1 is no accessor *)
let test_keepall_writer_checked_on_read () =
  let h, log = logged ~none:(-1) `Mutex Access_history.Keep_all in
  Access_history.on_write h ~loc:0 ~accessor:1;
  ignore (take log);
  Access_history.on_read h ~loc:0 ~accessor:2;
  check (Alcotest.list int) "read checked against last writer" [ 1 ]
    (List.map fst (take log));
  (* a different location is independent *)
  Access_history.on_read h ~loc:1 ~accessor:3;
  check (Alcotest.list int) "fresh location has no writer" [] (List.map fst (take log))

let test_keepall_write_checks_all_readers () =
  let h, log = logged ~none:(-1) `Mutex Access_history.Keep_all in
  List.iter (fun r -> Access_history.on_read h ~loc:7 ~accessor:r) [ 10; 20; 30 ];
  ignore (take log);
  Access_history.on_write h ~loc:7 ~accessor:99;
  let checked = take log in
  List.iter
    (fun (_, prev_is_writer) -> check bool "readers are not writers" false prev_is_writer)
    checked;
  check (Alcotest.list int) "all readers checked" [ 10; 20; 30 ]
    (List.sort compare (List.map fst checked));
  (* readers were cleared; next write checks only the last writer *)
  Access_history.on_write h ~loc:7 ~accessor:100;
  let checked2 = take log in
  List.iter (fun (_, prev_is_writer) -> check bool "now a writer" true prev_is_writer) checked2;
  check (Alcotest.list int) "only the writer remains" [ 99 ] (List.map fst checked2)

let test_keepall_same_strand_collapse () =
  let h, _ = logged ~none:(-1) `Mutex Access_history.Keep_all in
  let accessor = 42 in
  for _ = 1 to 100 do
    Access_history.on_read h ~loc:0 ~accessor
  done;
  check int "consecutive same-strand reads collapse" 1
    (Access_history.readers_stored h);
  check int "high-water mark" 1 (Access_history.max_readers_at_once h)

(* ------------------------------------------------------------------ *)
(* Access history — Lr_per_future                                       *)
(* ------------------------------------------------------------------ *)

(* accessors: (future, eng, heb) triples; covers = both orders less *)
type acc = { f : int; eng : int; heb : int }

let no_acc = { f = -1; eng = -1; heb = -1 }

let lr_policy =
  Access_history.Lr_per_future
    {
      future_of = (fun a -> a.f);
      more_left = (fun a b -> a.eng < b.eng);
      more_right = (fun a b -> a.heb < b.heb);
      covers = (fun a b -> a == b || (a.eng < b.eng && a.heb < b.heb));
    }

let test_lr_two_per_future () =
  let h, log = logged ~none:no_acc `Mutex lr_policy in
  (* five pairwise-parallel readers in one future: eng ascending, heb
     descending *)
  for i = 1 to 5 do
    Access_history.on_read h ~loc:0 ~accessor:{ f = 3; eng = i; heb = 6 - i }
  done;
  check int "at most two stored" 2 (Access_history.readers_stored h);
  Access_history.on_write h ~loc:0 ~accessor:{ f = 0; eng = 100; heb = 100 };
  let checked = List.map fst (take log) in
  (* the two extremes survive: (eng 1, heb 5) and (eng 5, heb 1) *)
  let engs = List.sort compare (List.map (fun a -> a.eng) checked) in
  check (Alcotest.list int) "extremes kept" [ 1; 5 ] engs

let test_lr_covered_replacement () =
  let h, log = logged ~none:no_acc `Mutex lr_policy in
  (* serial chain: each reader covers the previous; only the last stays *)
  for i = 1 to 5 do
    Access_history.on_read h ~loc:0 ~accessor:{ f = 1; eng = i; heb = i }
  done;
  Access_history.on_write h ~loc:0 ~accessor:{ f = 0; eng = 10; heb = 10 };
  let checked = List.map fst (take log) in
  let uniq = List.sort_uniq compare (List.map (fun a -> a.eng) checked) in
  check (Alcotest.list int) "only the covering reader remains" [ 5 ] uniq

let test_lr_per_future_isolation () =
  let h, _ = logged ~none:no_acc `Mutex lr_policy in
  List.iter (fun f -> Access_history.on_read h ~loc:0 ~accessor:{ f; eng = f; heb = f }) [ 1; 2; 3 ];
  (* one (doubled) slot per future *)
  check int "2 per future" 6 (Access_history.readers_stored h)

(* ------------------------------------------------------------------ *)
(* Synchronization modes                                                *)
(* ------------------------------------------------------------------ *)

(* The modes differ only in how a cell is synchronized: serially, one
   operation sequence must fire the same checks in the same order and
   leave the same statistics under each. Locations include a far one and
   a downward walk, so the shared paged table grows and overflows. *)
let mode_loc_gen =
  QCheck2.Gen.(
    oneof [ int_range 0 9; map (fun p -> 100_000 - (p * 64)) (int_range 0 40); pure (1 lsl 40) ])

let mode_ops_gen =
  QCheck2.Gen.(list_size (int_bound 300) (triple bool mode_loc_gen (int_range 0 5)))

let run_mode ~none sync policy ops =
  let log = ref [] in
  let check prev cur loc kind = log := (loc, cur, prev, kind <> Race.Read_write) :: !log in
  let h = Access_history.create ~sync ~none ~check policy in
  List.iter
    (fun (is_write, loc, accessor) ->
      if is_write then Access_history.on_write h ~loc ~accessor
      else Access_history.on_read h ~loc ~accessor)
    ops;
  ( List.rev !log,
    Access_history.locations_tracked h,
    Access_history.readers_stored h,
    Access_history.max_readers_at_once h )

(* Reference model of [Keep_all], independent of every mode's storage:
   per location a writer option and a newest-first reader list, with
   consecutive same-strand reads collapsed and no paged table. Same
   result shape as [run_mode]. *)
let run_keep_all_model ops =
  let cells = Hashtbl.create 16 in
  let log = ref [] and high = ref 0 in
  List.iter
    (fun (is_write, loc, accessor) ->
      let writer, readers =
        Option.value (Hashtbl.find_opt cells loc) ~default:(None, [])
      in
      Option.iter (fun w -> log := (loc, accessor, w, true) :: !log) writer;
      if is_write then begin
        List.iter (fun r -> log := (loc, accessor, r, false) :: !log) readers;
        Hashtbl.replace cells loc (Some accessor, [])
      end
      else begin
        let readers =
          match readers with
          | r :: _ when r = accessor -> readers
          | _ -> accessor :: readers
        in
        high := max !high (List.length readers);
        Hashtbl.replace cells loc (writer, readers)
      end)
    ops;
  ( List.rev !log,
    Hashtbl.length cells,
    Hashtbl.fold (fun _ (_, rs) n -> n + List.length rs) cells 0,
    !high )

let prop_modes_agree =
  QCheck2.Test.make ~name:"mutex, unsynchronized and lockfree agree serially" ~count:200
    mode_ops_gen (fun ops ->
      let reference = run_keep_all_model ops in
      List.for_all
        (fun sync -> run_mode ~none:(-1) sync Access_history.Keep_all ops = reference)
        [ `Mutex; `Unsynchronized; `Lockfree ])

(* [Lr_per_future] (the [sf-order-2pf] policy) runs under the two striped
   modes only. Accessors come from a fixed pool, so a repeated accessor
   is the physically equal strand the policy's [covers] expects. *)
let lr_pool =
  Array.init 8 (fun i -> { f = i mod 3; eng = i; heb = (i * 5) mod 8 })

let lr_ops_gen =
  QCheck2.Gen.(
    list_size (int_bound 300)
      (triple bool mode_loc_gen (map (Array.get lr_pool) (int_range 0 7))))

let prop_lr_modes_agree =
  QCheck2.Test.make ~name:"mutex and unsynchronized agree on Lr_per_future" ~count:200
    lr_ops_gen (fun ops ->
      run_mode ~none:no_acc `Mutex lr_policy ops
      = run_mode ~none:no_acc `Unsynchronized lr_policy ops)

(* ------------------------------------------------------------------ *)
(* Allocation per access                                                *)
(* ------------------------------------------------------------------ *)

(* Minor words [f ()] allocates. [w0] stays unboxed, and the result is
   boxed only after the second read, so the probe itself counts 0. *)
let words_in f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* total minor words of [n] calls [f i], each measured alone, so the
   set-up between calls is not counted *)
let words_over n f =
  let total = ref 0. in
  for i = 1 to n do
    let call () = f i in
    total := !total +. words_in call
  done;
  !total

let sync_names = [ (`Mutex, "mutex"); (`Unsynchronized, "unsynchronized"); (`Lockfree, "lockfree") ]

(* Under [Keep_all], with boxed accessors from a fixed pool: re-writes,
   writer changes, repeated same-strand reads and write-after-read
   allocate nothing; a new reader costs at most its 3-word cons. *)
let test_keepall_alloc_pins () =
  check (float 0.) "probe allocates nothing" 0. (words_in (fun () -> ()));
  let pool = Array.init 4 (fun i -> { f = i; eng = i; heb = i }) in
  List.iter
    (fun (sync, name) ->
      let calls = ref 0 in
      let h =
        Access_history.create ~sync ~none:no_acc
          ~check:(fun _ _ _ _ -> incr calls)
          Access_history.Keep_all
      in
      let write loc a () = Access_history.on_write h ~loc ~accessor:pool.(a) in
      let read loc a () = Access_history.on_read h ~loc ~accessor:pool.(a) in
      (* first touches: table pages, a cell's inline slots *)
      List.iter (fun loc -> write loc 0 (); read loc 0 (); write loc 0 ()) [ 0; 1; 2; 3 ];
      let pin what n f =
        check (float 0.) (Printf.sprintf "%s: %s allocate nothing" name what) 0.
          (words_over n f)
      in
      pin "repeated writes" 1000 (fun _ -> write 0 0 ());
      pin "writer changes" 1000 (fun i -> write 1 (i land 1) ());
      read 2 1 ();
      pin "same-strand reads" 1000 (fun _ -> read 2 1 ());
      (* the read before each write is a new reader: set up outside *)
      let wr_after_read = ref 0. in
      for i = 1 to 1000 do
        read 3 (2 + (i land 1)) ();
        wr_after_read := !wr_after_read +. words_in (write 3 (i land 1))
      done;
      check (float 0.) (name ^ ": write-after-read allocates nothing") 0. !wr_after_read;
      (* alternating readers, never collapsed: each one is new *)
      let per_reader = words_over 1000 (fun i -> read 0 (2 + (i land 1)) ()) /. 1000. in
      check bool
        (Printf.sprintf "%s: %.2f words per new reader <= 3" name per_reader)
        true (per_reader <= 3.);
      check bool (name ^ ": checks ran") true (!calls > 4000))
    sync_names

(* Live SF-Order on sort: what detection adds to a structure-only run of
   the same detector (no-op [on_read]/[on_write]), per access. *)
let test_sf_order_alloc_pin () =
  let sort = Option.get (Sfr_workloads.Registry.find "sort") in
  let program () = (sort.instantiate Sfr_workloads.Workload.Small).program in
  let accesses = ref 0 in
  let tick _ _ = incr accesses in
  ignore
    (Sfr_runtime.Serial_exec.run
       { Events.null with on_read = tick; on_write = tick }
       ~root:Events.Unit_state (program ()));
  let run_words strip =
    let det = Sfr_detect.Sf_order.make () in
    let cb = det.Sfr_detect.Detector.callbacks in
    let cb =
      if strip then { cb with on_read = (fun _ _ -> ()); on_write = (fun _ _ -> ()) } else cb
    in
    let prog = program () in
    words_in (fun () ->
        ignore (Sfr_runtime.Serial_exec.run cb ~root:det.Sfr_detect.Detector.root prog))
  in
  let per = (run_words false -. run_words true) /. float_of_int !accesses in
  check bool "many accesses" true (!accesses > 10_000);
  check bool (Printf.sprintf "%.2f minor words per access <= 4" per) true (per <= 4.)

(* ------------------------------------------------------------------ *)
(* Race collector                                                       *)
(* ------------------------------------------------------------------ *)

let test_race_collector () =
  let t = Race.create () in
  check (Alcotest.list int) "empty" [] (Race.racy_locations t);
  Race.report t ~loc:5 ~kind:Race.Write_write ~prev_future:1 ~cur_future:2;
  Race.report t ~loc:5 ~kind:Race.Read_write ~prev_future:3 ~cur_future:4;
  Race.report t ~loc:2 ~kind:Race.Write_read ~prev_future:0 ~cur_future:1;
  check (Alcotest.list int) "locations deduplicated and sorted" [ 2; 5 ]
    (Race.racy_locations t);
  check int "total witnessed" 3 (Race.total_witnessed t);
  match Race.reports t with
  | [ r2; r5 ] ->
      check int "loc 2 first" 2 r2.Race.loc;
      check int "loc 5 count" 2 r5.Race.count;
      check bool "first kind kept" true (r5.Race.kind = Race.Write_write)
  | _ -> Alcotest.fail "expected two reports"

let test_race_collector_concurrent () =
  let t = Race.create () in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to 249 do
              Race.report t ~loc:(i mod 10) ~kind:Race.Write_write
                ~prev_future:d ~cur_future:d
            done))
  in
  List.iter Domain.join domains;
  check int "all witnessed" 1000 (Race.total_witnessed t);
  check int "ten locations" 10 (List.length (Race.racy_locations t))

(* ------------------------------------------------------------------ *)
(* Exit maps                                                            *)
(* ------------------------------------------------------------------ *)

let test_exit_map_basic () =
  let eng = Exit_map.create () in
  let e = Exit_map.empty eng in
  let p1 = ref 1 and p2 = ref 2 in
  let t1 = Exit_map.with_exit eng e ~fid:4 p1 in
  let t1 = Exit_map.with_exit eng t1 ~fid:4 p2 in
  check int "two exits" 2 (List.length (Exit_map.exits t1 ~fid:4));
  check int "other fid empty" 0 (List.length (Exit_map.exits t1 ~fid:9));
  (* physical dedup *)
  let t1 = Exit_map.with_exit eng t1 ~fid:4 p1 in
  check int "no duplicate" 2 (List.length (Exit_map.exits t1 ~fid:4));
  Exit_map.release t1

let test_exit_map_cow () =
  let eng = Exit_map.create () in
  let p1 = ref 1 and p2 = ref 2 in
  let a = Exit_map.with_exit eng (Exit_map.empty eng) ~fid:1 p1 in
  let b = Exit_map.share a in
  let a' = Exit_map.with_exit eng a ~fid:1 p2 in
  check int "a' extended" 2 (List.length (Exit_map.exits a' ~fid:1));
  check int "b untouched" 1 (List.length (Exit_map.exits b ~fid:1));
  Exit_map.release a';
  Exit_map.release b

let test_exit_map_merge () =
  let eng = Exit_map.create () in
  let p1 = ref 1 and p2 = ref 2 in
  let a = Exit_map.with_exit eng (Exit_map.empty eng) ~fid:1 p1 in
  let b = Exit_map.with_exit eng (Exit_map.empty eng) ~fid:2 p2 in
  let m = Exit_map.merge eng a [ b ] in
  check int "merged entries" 2 (Exit_map.entry_count m);
  (* subsuming merge avoids allocation *)
  let small = Exit_map.with_exit eng (Exit_map.empty eng) ~fid:1 p1 in
  let allocs = Exit_map.allocations eng in
  let m2 = Exit_map.merge eng small [ Exit_map.share m ] in
  check int "subsumed merge allocates nothing" allocs (Exit_map.allocations eng);
  Exit_map.release m2;
  Exit_map.release m

(* ------------------------------------------------------------------ *)
(* Events.pair                                                          *)
(* ------------------------------------------------------------------ *)

type Events.state += Tag of string

let counting_client tag log =
  let fresh op = Tag (tag ^ op) in
  {
    Events.on_spawn =
      (fun _ ->
        log := "spawn" :: !log;
        (fresh "c", fresh "t"));
    on_create =
      (fun _ ->
        log := "create" :: !log;
        (fresh "c", fresh "t"));
    on_sync =
      (fun ~cur:_ ~spawned_lasts:_ ~created_firsts:_ ->
        log := "sync" :: !log;
        fresh "s");
    on_put = (fun _ -> log := "put" :: !log);
    on_get =
      (fun ~cur:_ ~put:_ ->
        log := "get" :: !log;
        fresh "g");
    on_returned = (fun ~cont:_ ~child_last:_ -> log := "ret" :: !log);
    on_read = (fun _ _ -> log := "read" :: !log);
    on_write = (fun _ _ -> log := "write" :: !log);
    on_work = (fun _ _ -> log := "work" :: !log);
  }

let test_events_pair () =
  let la = ref [] and lb = ref [] in
  let cb = Events.pair (counting_client "a" la) (counting_client "b" lb) in
  let module P = Sfr_runtime.Program in
  let prog () =
    let arr = P.alloc 1 0 in
    P.spawn (fun () -> P.wr arr 0 1);
    P.sync ();
    let h = P.create (fun () -> P.rd arr 0) in
    ignore (P.get h);
    P.work 3
  in
  let (), _ =
    Sfr_runtime.Serial_exec.run cb
      ~root:(Events.Pair_state (Tag "ra", Tag "rb"))
      prog
  in
  check bool "both clients saw identical event streams" true (!la = !lb);
  List.iter
    (fun ev -> check bool (ev ^ " seen") true (List.mem ev !la))
    [ "spawn"; "sync"; "create"; "get"; "read"; "write"; "work"; "put" ]

let test_events_pair_rejects_foreign () =
  let cb = Events.pair Events.null Events.null in
  Alcotest.check_raises "foreign state rejected"
    (Invalid_argument "Events.pair: foreign state") (fun () ->
      ignore (cb.Events.on_spawn Events.Unit_state))

let () =
  Alcotest.run "history"
    [
      ( "keep_all",
        [
          Alcotest.test_case "writer checked on read" `Quick
            test_keepall_writer_checked_on_read;
          Alcotest.test_case "write checks all readers" `Quick
            test_keepall_write_checks_all_readers;
          Alcotest.test_case "same-strand collapse" `Quick
            test_keepall_same_strand_collapse;
        ] );
      ( "lr_per_future",
        [
          Alcotest.test_case "two per future" `Quick test_lr_two_per_future;
          Alcotest.test_case "covered replacement" `Quick test_lr_covered_replacement;
          Alcotest.test_case "per-future isolation" `Quick test_lr_per_future_isolation;
        ] );
      ( "sync_modes",
        [
          QCheck_alcotest.to_alcotest prop_modes_agree;
          QCheck_alcotest.to_alcotest prop_lr_modes_agree;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "keep-all access pins" `Quick test_keepall_alloc_pins;
          Alcotest.test_case "live sf-order on sort" `Quick test_sf_order_alloc_pin;
        ] );
      ( "race_collector",
        [
          Alcotest.test_case "dedup and counts" `Quick test_race_collector;
          Alcotest.test_case "concurrent reports" `Quick test_race_collector_concurrent;
        ] );
      ( "exit_map",
        [
          Alcotest.test_case "basic" `Quick test_exit_map_basic;
          Alcotest.test_case "copy-on-write" `Quick test_exit_map_cow;
          Alcotest.test_case "merge" `Quick test_exit_map_merge;
        ] );
      ( "events",
        [
          Alcotest.test_case "pair mirrors events" `Quick test_events_pair;
          Alcotest.test_case "pair rejects foreign state" `Quick
            test_events_pair_rejects_foreign;
        ] );
    ]
