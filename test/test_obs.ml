(* Tests for Sfr_obs: domain-safe counter merging, histogram bucket
   boundaries, Chrome-trace JSON round-tripping, and the differential
   check that SF-Order's query-case counters account for every
   reachability query. *)

module Metrics = Sfr_obs.Metrics
module Trace_event = Sfr_obs.Trace_event
module Json_min = Sfr_obs.Json_min
module Detector = Sfr_detect.Detector
module Sf_order = Sfr_detect.Sf_order
module Serial_exec = Sfr_runtime.Serial_exec
module Synthetic = Sfr_workloads.Synthetic

let check = Alcotest.check

(* -- counters --------------------------------------------------------- *)

let test_counter_concurrent_merge () =
  Metrics.enable ();
  let c = Metrics.counter "test.obs.concurrent_sum" in
  let per_domain = 50_000 in
  let domains =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Metrics.incr c
            done))
  in
  Array.iter Domain.join domains;
  (* The first 128 domains of the process have distinct slots, so the
     merge is exact, not approximate. *)
  check Alcotest.int "4 domains x 50k increments" (4 * per_domain)
    (Metrics.value c)

let test_counter_max_merge () =
  Metrics.enable ();
  let c = Metrics.counter ~kind:`Max "test.obs.concurrent_max" in
  let domains =
    Array.init 4 (fun i ->
        Domain.spawn (fun () ->
            Metrics.add c ((i + 1) * 10);
            Metrics.add c 1 (* must not lower the high-water mark *)))
  in
  Array.iter Domain.join domains;
  check Alcotest.int "max across domains" 40 (Metrics.value c)

let test_counter_disable () =
  let c = Metrics.counter "test.obs.disabled" in
  let before = Metrics.value c in
  Metrics.disable ();
  Metrics.incr c;
  Metrics.add c 100;
  Metrics.enable ();
  check Alcotest.int "no increments while disabled" before (Metrics.value c)

let test_reset_all () =
  Metrics.enable ();
  let c = Metrics.counter "test.obs.reset_me" in
  let h = Metrics.histogram "test.obs.reset_hist" in
  Metrics.add c 7;
  Metrics.observe h 100;
  check Alcotest.bool "counter accumulated" true (Metrics.value c > 0);
  Metrics.reset_all ();
  check Alcotest.int "counter zeroed" 0 (Metrics.value c);
  check Alcotest.(list (pair int int)) "histogram zeroed" [] (Metrics.buckets h);
  (* registration survives the reset; only the values are dropped *)
  Metrics.incr c;
  check Alcotest.int "counter usable after reset" 1 (Metrics.value c);
  Metrics.reset_all ()

(* -- histograms ------------------------------------------------------- *)

let test_histogram_bucket_boundaries () =
  (* Bucket i holds 2^(i-1) < v <= 2^i; bucket 0 also absorbs v <= 1. *)
  List.iter
    (fun (v, want) ->
      check Alcotest.int (Printf.sprintf "bucket_index %d" v) want
        (Metrics.bucket_index v))
    [
      (0, 0); (1, 0); (2, 1); (3, 2); (4, 2); (5, 3); (8, 3); (9, 4);
      (1024, 10); (1025, 11);
    ];
  (* exact powers land in bucket i, the next value spills into i+1 —
     checked across the whole range so no power hits an off-by-one *)
  for i = 1 to 61 do
    check Alcotest.int (Printf.sprintf "bucket_index 2^%d" i) i
      (Metrics.bucket_index (1 lsl i));
    check Alcotest.int (Printf.sprintf "bucket_index 2^%d+1" i) (i + 1)
      (Metrics.bucket_index ((1 lsl i) + 1))
  done;
  (* the top of the int range must stay inside the buckets without the
     doubling bound overflowing: max_int = 2^62 - 1 <= 2^62 -> bucket 62
     (2^62 itself is not representable; 1 lsl 62 wraps to min_int) *)
  check Alcotest.int "bucket_index max_int" 62 (Metrics.bucket_index max_int)

let test_histogram_buckets () =
  Metrics.enable ();
  let h = Metrics.histogram "test.obs.hist" in
  List.iter (Metrics.observe h) [ 1; 2; 3; 4; 5; 8; 9 ];
  check
    Alcotest.(list (pair int int))
    "non-empty buckets with inclusive bounds"
    [ (1, 1); (2, 1); (4, 2); (8, 2); (16, 1) ]
    (Metrics.buckets h);
  (* The snapshot expands the same data into .le_N / .count entries. *)
  let snap = Metrics.snapshot () in
  check Alcotest.(option int) "snapshot .count" (Some 7)
    (List.assoc_opt "test.obs.hist.count" snap);
  check Alcotest.(option int) "snapshot .le_4" (Some 2)
    (List.assoc_opt "test.obs.hist.le_4" snap)

(* -- trace JSON round-trip -------------------------------------------- *)

let test_trace_round_trip () =
  Trace_event.start ();
  let v = Trace_event.with_span ~cat:"test" "outer" (fun () -> 42) in
  Trace_event.instant ~cat:"test" "mark \"quoted\"";
  Trace_event.stop ();
  check Alcotest.int "with_span passes the result through" 42 v;
  let json = Trace_event.to_json_string () in
  Trace_event.clear ();
  match Json_min.parse json with
  | Error e -> Alcotest.failf "trace JSON did not parse: %s" e
  | Ok doc -> (
      match Json_min.member "traceEvents" doc with
      | Some (Json_min.Arr events) ->
          check Alcotest.int "two events" 2 (List.length events);
          let names =
            List.filter_map
              (fun ev ->
                match Json_min.member "name" ev with
                | Some (Json_min.Str s) -> Some s
                | _ -> None)
            events
          in
          check
            Alcotest.(slist string String.compare)
            "names survive escaping"
            [ "outer"; "mark \"quoted\"" ]
            names;
          List.iter
            (fun ev ->
              (match Json_min.member "ph" ev with
              | Some (Json_min.Str ("X" | "i")) -> ()
              | _ -> Alcotest.fail "event phase must be X or i");
              match Json_min.member "ts" ev with
              | Some (Json_min.Num ts) ->
                  check Alcotest.bool "ts is non-negative" true (ts >= 0.0)
              | _ -> Alcotest.fail "event has no numeric ts")
            events
      | _ -> Alcotest.fail "no traceEvents array")

(* Regression: control characters in event names and counter-series keys
   must be escaped by the JSON writer, never emitted raw. *)
let test_trace_control_char_escaping () =
  Trace_event.start ();
  Trace_event.instant ~cat:"test" "name with\nnewline\tand tab";
  Trace_event.counter ~cat:"test" "series\nname" 7;
  Trace_event.stop ();
  let json = Trace_event.to_json_string () in
  Trace_event.clear ();
  String.iter
    (fun c ->
      if Char.code c < 0x20 then
        Alcotest.failf "raw control byte 0x%02x in trace JSON" (Char.code c))
    json;
  match Json_min.parse json with
  | Error e -> Alcotest.failf "trace JSON did not parse: %s" e
  | Ok doc -> (
      match Json_min.member "traceEvents" doc with
      | Some (Json_min.Arr events) ->
          let names =
            List.filter_map
              (fun ev ->
                match Json_min.member "name" ev with
                | Some (Json_min.Str s) -> Some s
                | _ -> None)
              events
          in
          check
            Alcotest.(slist string String.compare)
            "names decode back with their control chars"
            [ "name with\nnewline\tand tab"; "series\nname" ]
            names;
          let counter =
            List.find_opt
              (fun ev ->
                Json_min.member "ph" ev = Some (Json_min.Str "C"))
              events
          in
          (match counter with
          | None -> Alcotest.fail "no counter event in trace"
          | Some ev -> (
              match Json_min.member "args" ev with
              | Some (Json_min.Obj [ ("value", Json_min.Num v) ]) ->
                  check (Alcotest.float 1e-9) "counter value" 7.0 v
              | _ -> Alcotest.fail "counter args malformed"))
      | _ -> Alcotest.fail "no traceEvents array")

let test_trace_off_by_default () =
  Trace_event.clear ();
  let v = Trace_event.with_span "ignored" (fun () -> 7) in
  check Alcotest.int "thunk still runs" 7 v;
  check Alcotest.int "nothing buffered while off" 0
    (List.length (Trace_event.events ()))

(* -- Json_min escaping and nesting ------------------------------------ *)

let test_json_escape_decoding () =
  List.iter
    (fun (js, want) ->
      match Json_min.parse js with
      | Ok (Json_min.Str s) ->
          check Alcotest.string ("parse " ^ String.escaped js) want s
      | Ok _ -> Alcotest.failf "%s: parsed to a non-string" (String.escaped js)
      | Error e -> Alcotest.failf "%s: %s" (String.escaped js) e)
    [
      ({|"a\"b"|}, "a\"b");
      ({|"a\\b"|}, "a\\b");
      ({|"a\/b"|}, "a/b");
      ({|"\n\t\r\b\f"|}, "\n\t\r\b\012");
      ("\"\\u0000\\u0001\\u001f\"", "\x00\x01\x1f");
      ("\"caf\\u00e9\"", "caf\xe9");
      (* raw non-ASCII bytes pass through untouched *)
      ("\"caf\xc3\xa9\"", "caf\xc3\xa9");
    ]

(* Round trip through the escaper every writer shares: encode with
   [Json_min.escape], decode with [Json_min.parse]. *)
let emit_escaped s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  Json_min.escape b s;
  Buffer.add_char b '"';
  Buffer.contents b

let test_json_escape_round_trip () =
  List.iter
    (fun s ->
      match Json_min.parse (emit_escaped s) with
      | Ok (Json_min.Str s') ->
          check Alcotest.string ("round trip " ^ String.escaped s) s s'
      | Ok _ -> Alcotest.failf "%s: parsed to a non-string" (String.escaped s)
      | Error e -> Alcotest.failf "%s: %s" (String.escaped s) e)
    [
      "";
      "plain";
      "with \"quotes\" and \\backslashes\\";
      "controls: \x00\x01\x02\x1f \n\t\r";
      "non-ascii bytes: caf\xc3\xa9 \xff\x80";
      String.init 256 Char.chr;
    ]

let test_json_deeply_nested_arrays () =
  let depth = 500 in
  let js = String.make depth '[' ^ "7" ^ String.make depth ']' in
  match Json_min.parse js with
  | Error e -> Alcotest.failf "nested parse failed: %s" e
  | Ok doc ->
      let rec depth_of acc = function
        | Json_min.Arr [ x ] -> depth_of (acc + 1) x
        | Json_min.Num n ->
            check (Alcotest.float 0.0) "payload survives" 7.0 n;
            acc
        | _ -> Alcotest.fail "unexpected shape"
      in
      check Alcotest.int "all levels preserved" depth (depth_of 0 doc)

(* -- differential: query-case counters vs Detector.queries ------------ *)

let test_query_cases_sum_to_queries () =
  Metrics.enable ();
  let t = Synthetic.generate ~seed:7 ~ops:400 ~depth:6 ~locs:24 () in
  let inst = Synthetic.instantiate t in
  let det = Sf_order.make () in
  let (), _ =
    Serial_exec.run det.Detector.callbacks ~root:det.Detector.root
      inst.Synthetic.program
  in
  let m = det.Detector.metrics () in
  let get name = Option.value ~default:0 (List.assoc_opt name m) in
  let same = get "reach.query.same_future"
  and cp = get "reach.query.cp"
  and gp = get "reach.query.gp" in
  let total = det.Detector.queries () in
  check Alcotest.bool "ran some queries" true (total > 0);
  check Alcotest.int "Algorithm 1 cases partition the queries" total
    (same + cp + gp)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "concurrent sum merge" `Quick
            test_counter_concurrent_merge;
          Alcotest.test_case "concurrent max merge" `Quick
            test_counter_max_merge;
          Alcotest.test_case "disable" `Quick test_counter_disable;
          Alcotest.test_case "reset_all" `Quick test_reset_all;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "bucket boundaries" `Quick
            test_histogram_bucket_boundaries;
          Alcotest.test_case "buckets + snapshot" `Quick test_histogram_buckets;
        ] );
      ( "trace",
        [
          Alcotest.test_case "round trip" `Quick test_trace_round_trip;
          Alcotest.test_case "control-char escaping" `Quick
            test_trace_control_char_escaping;
          Alcotest.test_case "off by default" `Quick test_trace_off_by_default;
        ] );
      ( "json",
        [
          Alcotest.test_case "escape decoding" `Quick test_json_escape_decoding;
          Alcotest.test_case "escape round trip" `Quick
            test_json_escape_round_trip;
          Alcotest.test_case "deeply nested arrays" `Quick
            test_json_deeply_nested_arrays;
        ] );
      ( "differential",
        [
          Alcotest.test_case "query cases sum to queries" `Quick
            test_query_cases_sum_to_queries;
        ] );
    ]
