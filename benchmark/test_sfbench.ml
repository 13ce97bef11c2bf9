(* sfbench's own arithmetic and files; no workload runs here. *)

open Sfbench_lib

let close_to = Alcotest.float 1e-12

(* Expected values are Python's statistics.quantiles(xs, n=4) and
   statistics.quantiles(xs, n=100)[89] over the same lists. *)
let test_quantiles () =
  let s = Summary.of_samples [ 5.; 1.; 4.; 2.; 3. ] in
  Alcotest.check close_to "median odd" 3.0 s.Summary.median;
  Alcotest.check close_to "q1 odd" 1.5 s.Summary.q1;
  Alcotest.check close_to "q3 odd" 4.5 s.Summary.q3;
  Alcotest.(check int) "n" 5 s.Summary.n;
  let s = Summary.of_samples [ 1.; 2.; 3.; 4. ] in
  Alcotest.check close_to "median even" 2.5 s.Summary.median;
  Alcotest.check close_to "q1 even" 1.25 s.Summary.q1;
  Alcotest.check close_to "q3 even" 3.75 s.Summary.q3;
  Alcotest.check close_to "p90" 9.9 (Summary.percentile 90 (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check close_to "p90 of 100" 90.9
    (Summary.percentile 90 (List.init 100 (fun i -> float_of_int (i + 1))));
  let one = Summary.of_samples [ 0.25 ] in
  Alcotest.check close_to "single sample" 0.25 one.Summary.q3;
  Alcotest.check_raises "no samples" (Invalid_argument "Summary.cut: no samples") (fun () ->
      ignore (Summary.median []))

let metric name unit_ median =
  {
    Report.name;
    unit_;
    summary =
      { Summary.median; q1 = median *. 0.9; q3 = median *. 1.1; lo = median *. 0.8; hi = median *. 1.2; n = 10 };
  }

let test_value () =
  Alcotest.check close_to "a best time is the least" 0.8 (Report.value (metric "op_s" "s" 1.0));
  Alcotest.check close_to "a best rate is the greatest" 1.2 (Report.value (metric "events_per_s" "events/s" 1.0));
  Alcotest.check close_to "setup is a median" 1.0 (Report.value (metric "setup_s" "s" 1.0));
  Alcotest.check close_to "layers are medians" 1.0 (Report.value (metric "detect.access_s" "s" 1.0))

let workload ?(traced = false) ?(failed = 0) name metrics =
  { Report.workload = name; seed = 7; traced; attempted = 20; failed; metrics }

let test_round_trip () =
  let ws =
    [
      workload "live-access" [ metric "op_s" "s" 0.40350000000000003; metric "setup_s" "s" 1e-3 ];
      workload ~traced:true ~failed:1 "serve-ingest"
        [ metric "serve.pct" "%" 38.9445; metric "om.relabels" "count" 2520.0 ];
    ]
  in
  match Report.of_json (Report.to_json ws) with
  | Ok back -> Alcotest.(check bool) "identical after the round trip" true (back = ws)
  | Error e -> Alcotest.fail e

let test_result_line () =
  let w = workload "record-replay" [ metric "op_s" "s" 1.25 ] in
  let line = Report.result_line w ~names:[ "op_s"; "om.relabels" ] in
  (match Sfr_obs.Json_min.parse line with
  | Ok j ->
      let get k = Sfr_obs.Json_min.member k j in
      Alcotest.(check bool) "correct" true (get "correct" = Some (Sfr_obs.Json_min.Bool true));
      Alcotest.(check bool) "attempted" true (get "attempted" = Some (Sfr_obs.Json_min.Num 20.0));
      let value name =
        Option.bind (get "metrics") (Sfr_obs.Json_min.member name)
        |> Fun.flip Option.bind (Sfr_obs.Json_min.member "value")
      in
      Alcotest.(check bool) "op_s" true (value "op_s" = Some (Sfr_obs.Json_min.Num 1.0));
      Alcotest.(check bool) "unmeasured count is 0" true (value "om.relabels" = Some (Sfr_obs.Json_min.Num 0.0))
  | Error e -> Alcotest.fail e);
  Alcotest.check_raises "an unmeasured time is an error"
    (Invalid_argument "record-replay did not measure unattributed_s") (fun () ->
      ignore (Report.result_line w ~names:[ "unattributed_s" ]))

let spec =
  {
    Spec.run_seconds = 10;
    workloads = [ "live-access"; "serve-ingest" ];
    end_to_end =
      [
        { Spec.g_name = "op_s"; g_unit = "s"; better = Catalog.Lower; bound = 0.1 };
        { Spec.g_name = "events_per_s"; g_unit = "events/s"; better = Catalog.Higher; bound = 0.1 };
      ];
    per_layer = [];
  }

let pair ?(failed = 0) op eps =
  [
    workload "live-access" [ metric "op_s" "s" op; metric "events_per_s" "events/s" eps ];
    workload ~failed "serve-ingest" [ metric "op_s" "s" 0.2; metric "events_per_s" "events/s" 5e6 ];
    (* traced results never enter the comparison *)
    workload ~traced:true "live-access" [ metric "op_s" "s" 9.0 ];
  ]

let verdicts a b =
  List.filter_map
    (fun v -> if v.Agree.ok then None else Some (v.Agree.workload ^ "/" ^ v.Agree.metric))
    (Agree.compare spec ~a ~b)

let test_agree () =
  let a = pair 0.40 6e6 in
  Alcotest.(check (list string)) "identical" [] (verdicts a a);
  Alcotest.(check (list string)) "within the bound" [] (verdicts a (pair 0.43 5.6e6));
  Alcotest.(check (list string)) "slower" [ "live-access/op_s" ] (verdicts a (pair 0.45 6e6));
  Alcotest.(check (list string)) "faster also disagrees" [ "live-access/op_s" ] (verdicts a (pair 0.35 6e6));
  Alcotest.(check (list string)) "throughput" [ "live-access/events_per_s" ] (verdicts a (pair 0.40 5.3e6));
  Alcotest.(check (list string)) "failed share rose" [ "serve-ingest/failed_share" ]
    (verdicts a (pair ~failed:1 0.40 6e6));
  Alcotest.(check (list string))
    "missing workload"
    [ "serve-ingest/op_s"; "serve-ingest/events_per_s"; "serve-ingest/failed_share" ]
    (verdicts a [ List.hd a ])

let valid_name s =
  s <> ""
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

(* BENCHMARK.json names only what sfbench measures, in the units it
   reports them in. *)
let test_benchmark_json () =
  let s = match Spec.load "../BENCHMARK.json" with Ok s -> s | Error e -> Alcotest.fail e in
  let names = List.map fst Workloads.all in
  Alcotest.(check (list string)) "workloads, in order" names s.Spec.workloads;
  let known what name unit_ =
    Alcotest.(check bool) (what ^ " name " ^ name) true (valid_name name);
    match Catalog.find name with
    | Some m -> Alcotest.(check string) (name ^ " unit") m.Catalog.unit_ unit_
    | None -> Alcotest.fail (what ^ " metric unknown to sfbench: " ^ name)
  in
  List.iter (fun w -> Alcotest.(check bool) ("workload name " ^ w) true (valid_name w)) names;
  List.iter
    (fun g ->
      known "end-to-end" g.Spec.g_name g.Spec.g_unit;
      Alcotest.(check bool) (g.Spec.g_name ^ " bound") true (g.Spec.bound > 0.0 && g.Spec.bound <= 0.25);
      Alcotest.(check bool)
        (g.Spec.g_name ^ " direction")
        true
        (Option.map (fun m -> m.Catalog.better) (Catalog.find g.Spec.g_name) = Some (Some g.Spec.better)))
    s.Spec.end_to_end;
  List.iter (fun (n, u) -> known "per-layer" n u) s.Spec.per_layer;
  let setup = List.find (fun g -> g.Spec.g_name = "setup_s") s.Spec.end_to_end in
  List.iter
    (fun g -> Alcotest.(check bool) ("setup_s bound >= " ^ g.Spec.g_name) true (setup.Spec.bound >= g.Spec.bound))
    s.Spec.end_to_end;
  let all = List.map (fun m -> m.Catalog.name) Catalog.all in
  Alcotest.(check int) "catalog names unique" (List.length all) (List.length (List.sort_uniq compare all))

let () =
  Alcotest.run "sfbench"
    [
      ( "sfbench",
        [
          Alcotest.test_case "quartiles and percentiles" `Quick test_quantiles;
          Alcotest.test_case "reported statistic" `Quick test_value;
          Alcotest.test_case "result json round trip" `Quick test_round_trip;
          Alcotest.test_case "result line" `Quick test_result_line;
          Alcotest.test_case "agree verdicts" `Quick test_agree;
          Alcotest.test_case "BENCHMARK.json names" `Quick test_benchmark_json;
        ] );
    ]
