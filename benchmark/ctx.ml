(* The state of one workload run: the samples taken so far, the operations
   attempted and failed, and the coarse spans a traced run writes out. *)

let now = Sfr_obs.Prof.now_ns
let seconds_since t0 = float_of_int (now () - t0) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, seconds_since t0)

type t = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  work_dir : string;
  racedetect : string;
  samples : (string, float list) Hashtbl.t;
  mutable recording : bool;
  mutable attempted : int;
  mutable failed : int;
  mutable spans : (string * int * int * int) list;  (** name, tid, start, end (ns) *)
  mutable logs : string list;  (** written, not yet deleted *)
  mutable next_log : int;
}

let create ~workload ~seed ~seconds ~trace ~work_dir ~racedetect =
  {
    workload;
    seed;
    seconds;
    trace;
    work_dir;
    racedetect;
    samples = Hashtbl.create 64;
    recording = true;
    attempted = 0;
    failed = 0;
    spans = [];
    logs = [];
    next_log = 0;
  }

let add t name v =
  if Catalog.find name = None then invalid_arg ("Ctx.add: metric not in the catalog: " ^ name);
  if t.recording then
    Hashtbl.replace t.samples name (v :: Option.value ~default:[] (Hashtbl.find_opt t.samples name))

let samples t name = Option.value ~default:[] (Hashtbl.find_opt t.samples name)

(* Every operation is checked; a failed one is counted, never retried. *)
let op t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    Printf.eprintf "sfbench: %s: %s failed\n%!" t.workload what
  end

(* Spans are kept in memory and written when the run ends; [Mutex] because
   serve clients record sessions from two domains. *)
let spans_mu = Mutex.create ()

let span t name f =
  if not t.trace then f ()
  else begin
    let t0 = now () in
    let r = f () in
    let t1 = now () in
    Mutex.protect spans_mu (fun () ->
        t.spans <- (name, (Domain.self () :> int), t0, t1) :: t.spans);
    r
  end

(* A fresh path for an event log. Overwriting a log can wait for the
   writeback of the old one, which would be timed as part of recording,
   so every recording gets a new file; they are deleted between rounds,
   outside any timing. *)
let log_path t =
  t.next_log <- t.next_log + 1;
  let p = Filename.concat t.work_dir (Printf.sprintf "%s.%d.sflog" t.workload t.next_log) in
  t.logs <- p :: t.logs;
  p

let delete_logs t =
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) t.logs;
  t.logs <- []

let timed_setup t setup =
  Gc.full_major ();
  let v, dt = span t "setup" (fun () -> time setup) in
  add t "setup_s" dt;
  v

(* Peak resident set of this process, from the kernel's high-water mark. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | s ->
      List.find_map
        (fun line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] ->
              Option.map
                (fun kb -> float_of_int kb /. 1024.0)
                (int_of_string_opt (List.hd (String.split_on_char ' ' (String.trim v))))
          | _ -> None)
        (String.split_on_char '\n' s)
  | exception Sys_error _ -> None

(* [setup] is everything done before the first timed sample: then one
   untimed warmup round, then rounds until [seconds] have passed (at least
   three). [setup] runs [setups - 1] more times, spread over the run so
   that one burst of host interference cannot move the median; only the
   first result is kept. The peak resident set is read after the eighth round
   (or the last, if fewer), so it does not grow with the number of rounds
   a fast host fits in. *)
let setups = 9

let run t ~setup ~round =
  let v = timed_setup t setup in
  t.recording <- false;
  span t "warmup" (fun () -> round v);
  t.recording <- true;
  let t0 = now () in
  let n = ref 0 and done_ = ref 1 in
  let again () =
    ignore (timed_setup t setup);
    incr done_
  in
  let rss () = Option.iter (add t "peak_rss_mb") (peak_rss_mb ()) in
  while !n < 3 || seconds_since t0 < t.seconds do
    span t "round" (fun () -> round v);
    delete_logs t;
    incr n;
    if !n = 8 then rss ();
    if !n >= 3 && !done_ < setups
       && seconds_since t0 >= float_of_int !done_ *. t.seconds /. float_of_int setups
    then again ()
  done;
  if !n < 8 then rss ();
  while !done_ < setups do
    again ()
  done;
  v

let report t =
  let metrics =
    List.filter_map
      (fun (m : Catalog.metric) ->
        match samples t m.Catalog.name with
        | [] -> None
        | xs ->
            Some { Report.name = m.Catalog.name; unit_ = m.Catalog.unit_; summary = Summary.of_samples xs })
      Catalog.all
  in
  {
    Report.workload = t.workload;
    seed = t.seed;
    traced = t.trace;
    attempted = t.attempted;
    failed = t.failed;
    metrics;
  }

let write_chrome t path =
  let module Te = Sfr_obs.Trace_event in
  let epoch = List.fold_left (fun m (_, _, s, _) -> min m s) max_int t.spans in
  let us ns = float_of_int ns /. 1000.0 in
  Te.start ();
  List.iter
    (fun (name, tid, s, e) ->
      Te.complete ~cat:"sfbench" ~tid ~args:[] (t.workload ^ "/" ^ name) ~ts_us:(us (s - epoch))
        ~dur_us:(us (e - s)))
    (List.rev t.spans);
  Te.stop ();
  Te.write_file path;
  Te.clear ()
