(* sfbench: the end-to-end benchmark. Run from the repository root after
   building racedetect and sfbench:

     dune build bin/racedetect.exe benchmark/sfbench.exe
     ./_build/default/benchmark/sfbench.exe --seed 1 --out R.json
     ./_build/default/benchmark/sfbench.exe --seed 1 --trace-out T.json
     ./_build/default/benchmark/sfbench.exe agree R1.json R2.json

   Without --workload it runs every workload, each in a child process of
   its own, and writes their results to --out. With --workload it runs
   that one workload in this process, prints its table and, as the last
   line, the one-line result object (end-to-end metrics untraced,
   per-layer metrics traced, as BENCHMARK.json lists them). Exit status:
   0 all operations correct, 1 an operation failed (or agree found a
   disagreement), 2 usage or I/O error. *)

open Sfbench_lib

let spec_path = "BENCHMARK.json"
let work_dir = "_sfbench"
let racedetect = "_build/default/bin/racedetect.exe"

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("sfbench: " ^ s); exit 2) fmt

let usage () =
  die
    "usage: sfbench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]\n\
    \               [--out FILE | --trace-out FILE] [--chrome-out FILE]\n\
    \       sfbench agree A.json B.json"

let load_spec () = match Spec.load spec_path with Ok s -> s | Error e -> die "%s" e

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float option;
  mutable trace : bool;
  mutable out : string option;
  mutable chrome_out : string option;
}

let parse args =
  let o = { workload = None; seed = 1; seconds = None; trace = false; out = None; chrome_out = None } in
  let int s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        let names = List.map fst Workloads.all in
        if not (List.mem w names) then
          die "unknown workload %S (one of %s)" w (String.concat ", " names);
        o.workload <- Some w;
        go rest
    | "--seed" :: n :: rest ->
        o.seed <- int n;
        go rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with
        | Some f when f > 0.0 -> o.seconds <- Some f
        | _ -> usage ());
        go rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        o.trace <- v = "1";
        go rest
    | "--trace" :: rest ->
        o.trace <- true;
        go rest
    | "--out" :: f :: rest ->
        o.out <- Some f;
        go rest
    | "--trace-out" :: f :: rest ->
        o.trace <- true;
        o.out <- Some f;
        go rest
    | "--chrome-out" :: f :: rest ->
        o.chrome_out <- Some f;
        go rest
    | _ -> usage ()
  in
  go args;
  o

(* One workload in this process. *)
let run_one spec o name =
  if not (Sys.file_exists racedetect) then die "%s is missing: build it first" racedetect;
  (try Sys.mkdir work_dir 0o755 with Sys_error _ -> ());
  let seconds = Option.value o.seconds ~default:(float_of_int spec.Spec.run_seconds) in
  let ctx = Ctx.create ~workload:name ~seed:o.seed ~seconds ~trace:o.trace ~work_dir ~racedetect in
  let run = List.assoc name Workloads.all in
  Ctx.span ctx "workload" (fun () -> run ctx);
  Ctx.delete_logs ctx;
  if o.trace then begin
    let chrome =
      Option.value o.chrome_out ~default:(Filename.concat work_dir (name ^ ".chrome.json"))
    in
    Ctx.write_chrome ctx chrome
  end;
  let w = Ctx.report ctx in
  Option.iter (fun f -> Report.write_file f [ w ]) o.out;
  Format.printf "%a@?" Report.pp_table w;
  let names =
    if o.trace then List.map fst spec.Spec.per_layer
    else List.map (fun g -> g.Spec.g_name) spec.Spec.end_to_end
  in
  print_endline (Report.result_line w ~names);
  exit (if w.Report.failed = 0 then 0 else 1)

(* Every workload, one child process each, one after another. *)
let run_all spec o =
  let results = Filename.concat work_dir "child.json" in
  let remove_results () = try Sys.remove results with Sys_error _ -> () in
  (try Sys.mkdir work_dir 0o755 with Sys_error _ -> ());
  let failed = ref false in
  let ws =
    List.concat_map
      (fun name ->
        remove_results ();
        let chrome =
          match o.out with
          | Some f when o.trace -> [ "--chrome-out"; Filename.remove_extension f ^ "." ^ name ^ ".chrome.json" ]
          | _ -> []
        in
        let args =
          [ "--workload"; name; "--seed"; string_of_int o.seed; "--trace"; (if o.trace then "1" else "0");
            "--out"; results ]
          @ (match o.seconds with Some s -> [ "--seconds"; Printf.sprintf "%g" s ] | None -> [])
          @ chrome
        in
        let pid =
          Unix.create_process Sys.executable_name
            (Array.of_list (Sys.executable_name :: args))
            Unix.stdin Unix.stdout Unix.stderr
        in
        (match snd (Unix.waitpid [] pid) with
        | Unix.WEXITED 0 -> ()
        | _ -> failed := true);
        match Report.read_file results with
        | Ok ws -> ws
        | Error e ->
            Printf.eprintf "sfbench: %s: no result (%s)\n%!" name e;
            failed := true;
            [])
      spec.Spec.workloads
  in
  remove_results ();
  Option.iter
    (fun f ->
      (try Report.write_file f ws with Sys_error e -> die "%s" e);
      Printf.printf "wrote %s\n" f)
    o.out;
  exit (if !failed then 1 else 0)

let agree a b =
  let spec = load_spec () in
  let read f = match Report.read_file f with Ok ws -> ws | Error e -> die "%s" e in
  let vs = Agree.compare spec ~a:(read a) ~b:(read b) in
  Format.printf "%a@?" Agree.pp vs;
  exit (if Agree.all_agree vs then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "agree"; a; b ] -> agree a b
  | "agree" :: _ -> usage ()
  | args -> (
      let o = parse args in
      let spec = load_spec () in
      match o.workload with Some name -> run_one spec o name | None -> run_all spec o)
