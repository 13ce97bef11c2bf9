(* Continuous telemetry: a sampler domain turns the end-of-run snapshot
   surfaces (Metrics, GC quick-stat, scheduler probes) into a bounded
   time-series. One writer (the sampler domain) appends to a ring of
   immutable sample records — a record store is one pointer write, so
   concurrent readers can tear nothing worse than missing the newest
   entry. Exports: JSONL stream (one line per sample, flushed as
   written so a crash loses nothing), Prometheus text exposition, and
   Chrome counter events merged into the live Trace_event stream. *)

type sample = {
  seq : int;
  t_ms : float;
  marks : string list;
  counters : (string * int) list;
  gauges : (string * int) list;
}

let schema_version = 1
let default_sample_ms = 10
let default_ring_capacity = 4096

type t = {
  ring : sample option array;
  capacity : int;
  mutable wseq : int; (* samples written, including overwritten *)
  sample_ms : int;
  out : out_channel option;
  probe : unit -> (string * int) list;
  stop_flag : bool Atomic.t;
  mutable dom : unit Domain.t option;
  mutable prev : (string * int) list; (* Sum-counter baseline for deltas *)
  epoch_ns : int;
}

(* start/stop are controller-side and rare; the mutex never appears on a
   recording hot path. [armed] is the one-atomic-load gate the runtime
   probe sites (Par_exec worker counters, Telemetry.mark) check. *)
let mu = Mutex.create ()

(* [current] keeps the most recent instance even after [stop] so the
   ring stays inspectable ([samples], [pp_timeline]); [active] is the
   actual lifecycle bit. Both are guarded by [mu]. *)
let current : t option ref = ref None
let active = ref false
let armed_flag = Atomic.make false
let pending_marks : string list Atomic.t = Atomic.make []

let armed () = Atomic.get armed_flag

let running () =
  Mutex.lock mu;
  let r = !active in
  Mutex.unlock mu;
  r

let mark name =
  if Atomic.get armed_flag then begin
    let rec push () =
      let ms = Atomic.get pending_marks in
      if not (Atomic.compare_and_set pending_marks ms (name :: ms)) then push ()
    in
    push ();
    Trace_event.instant ~cat:"telemetry" name
  end

(* -- sampling ----------------------------------------------------------- *)

let gc_gauges () =
  let s = Gc.quick_stat () in
  [
    ("gc.heap_words", s.Gc.heap_words);
    ("gc.minor_collections", s.Gc.minor_collections);
    ("gc.major_collections", s.Gc.major_collections);
    ("gc.compactions", s.Gc.compactions);
  ]

(* -- JSONL wire format (schema: doc in DESIGN.md section 13) ------------ *)

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let add_str b s =
  Buffer.add_char b '"';
  escape b s;
  Buffer.add_char b '"'

let add_int_obj b kvs =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      add_str b k;
      Buffer.add_char b ':';
      Buffer.add_string b (string_of_int v))
    kvs;
  Buffer.add_char b '}'

let header_json t =
  Printf.sprintf
    "{\"telemetry_schema\":%d,\"sample_ms\":%d,\"ring_capacity\":%d,\"unix_time\":%.3f}"
    schema_version t.sample_ms t.capacity (Unix.gettimeofday ())

let sample_to_json s =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "{\"seq\":%d,\"t_ms\":%.3f," s.seq s.t_ms);
  add_str b "marks";
  Buffer.add_string b ":[";
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_char b ',';
      add_str b m)
    s.marks;
  Buffer.add_string b "],";
  add_str b "counters";
  Buffer.add_char b ':';
  add_int_obj b s.counters;
  Buffer.add_char b ',';
  add_str b "gauges";
  Buffer.add_char b ':';
  add_int_obj b s.gauges;
  Buffer.add_char b '}';
  Buffer.contents b

let take_sample t =
  let t_ms = float_of_int (Prof.now_ns () - t.epoch_ns) /. 1e6 in
  let marks = List.rev (Atomic.exchange pending_marks []) in
  (* quick_export, not export: merging every histogram's bucket matrix
     each tick would dwarf the rest of the sample *)
  let series = Metrics.quick_export () in
  let totals =
    List.filter_map
      (fun (n, k, v) -> if k = `Counter then Some (n, v) else None)
      series
  in
  (* per-interval deltas for monotone counters; a counter that did not
     move since the previous tick is elided to bound the line length *)
  let counters =
    List.filter_map
      (fun (n, v) ->
        let base =
          match List.assoc_opt n t.prev with Some b -> b | None -> 0
        in
        let d = v - base in
        if d <> 0 then Some (n, d) else None)
      totals
  in
  t.prev <- totals;
  let gauges =
    List.filter_map
      (fun (n, k, v) -> if k = `Gauge && v <> 0 then Some (n, v) else None)
      series
    @ t.probe ()
    @ gc_gauges ()
  in
  let s = { seq = t.wseq; t_ms; marks; counters; gauges } in
  t.ring.(t.wseq land (t.capacity - 1)) <- Some s;
  t.wseq <- t.wseq + 1;
  (match t.out with
  | Some oc ->
      output_string oc (sample_to_json s);
      output_char oc '\n';
      (* flushed per sample: the crash hook then only has to flush the
         OS-buffered tail, and a killed process loses no whole sample *)
      flush oc
  | None -> ());
  if Trace_event.is_on () then begin
    List.iter (fun (n, v) -> Trace_event.counter n v) counters;
    List.iter (fun (n, v) -> Trace_event.counter n v) gauges
  end

let sampler_loop t =
  Metrics.domain_enter ();
  Fun.protect
    ~finally:(fun () -> Metrics.domain_exit ())
    (fun () ->
      take_sample t;
      (* the baseline tick *)
      while not (Atomic.get t.stop_flag) do
        Unix.sleepf (float_of_int t.sample_ms /. 1000.0);
        take_sample t
      done;
      (* quiescence: one final tick captures everything after the last
         periodic sample, so short runs still export >= 2 samples *)
      take_sample t)

(* -- lifecycle ---------------------------------------------------------- *)

let start ?(sample_ms = default_sample_ms) ?(ring_capacity = default_ring_capacity)
    ?out ?(probe = fun () -> []) () =
  if sample_ms < 1 then invalid_arg "Telemetry.start: sample_ms must be >= 1";
  let capacity =
    let rec pow2 n = if n >= ring_capacity then n else pow2 (2 * n) in
    if ring_capacity < 2 then 2 else pow2 2
  in
  Mutex.lock mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock mu)
    (fun () ->
      if !active then () (* idempotent: one sampler per process *)
      else begin
          let oc = Option.map open_out out in
          let t =
            {
              ring = Array.make capacity None;
              capacity;
              wseq = 0;
              sample_ms;
              out = oc;
              probe;
              stop_flag = Atomic.make false;
              dom = None;
              prev = [];
              epoch_ns = Prof.now_ns ();
            }
          in
          (match oc with
          | Some oc ->
              output_string oc (header_json t);
              output_char oc '\n';
              flush oc
          | None -> ());
          current := Some t;
          active := true;
          Atomic.set armed_flag true;
          t.dom <- Some (Domain.spawn (fun () -> sampler_loop t))
      end)

let stop () =
  Mutex.lock mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock mu)
    (fun () ->
      match !current with
      | Some t when !active ->
          Atomic.set armed_flag false;
          Atomic.set t.stop_flag true;
          (match t.dom with Some d -> Domain.join d | None -> ());
          (match t.out with Some oc -> close_out oc | None -> ());
          (* [current] survives for post-run inspection of the ring *)
          active := false
      | _ -> ())

(* crash safety: flush the stream even if the process dies mid-run; the
   hook is registered once at module load and is a no-op while idle *)
let () =
  Flight.add_crash_hook (fun () ->
      match !current with
      | Some { out = Some oc; _ } -> ( try flush oc with _ -> ())
      | _ -> ())

(* -- ring access -------------------------------------------------------- *)

let with_ring f =
  Mutex.lock mu;
  let r = !current in
  Mutex.unlock mu;
  match r with None -> [] | Some t -> f t

let samples () =
  with_ring (fun t ->
      let first = max 0 (t.wseq - t.capacity) in
      let rec go i acc =
        if i < first then acc
        else
          match t.ring.(i land (t.capacity - 1)) with
          | Some s when s.seq = i -> go (i - 1) (s :: acc)
          | _ -> go (i - 1) acc
      in
      go (t.wseq - 1) [])

let sample_count () =
  match with_ring (fun t -> [ t.wseq ]) with [ n ] -> n | _ -> 0

(* -- command-line sinks --------------------------------------------------- *)

type sinks = {
  trace_out : string option;
  telemetry_out : string option;
  sample_ms : int;
}

let with_sinks ?probe ?(on_stop = ignore) s f =
  if s.trace_out <> None then Trace_event.start ();
  (* telemetry rides along whenever a trace is requested, so the chrome
     view always gains counter tracks; [telemetry_out] adds the JSONL
     stream on top *)
  let telemetry_on = s.telemetry_out <> None || s.trace_out <> None in
  if telemetry_on then
    start ~sample_ms:s.sample_ms ?out:s.telemetry_out ?probe ();
  let r = f () in
  (* stop telemetry before the trace is written: the final sample's
     counter events must land inside the trace buffer *)
  if telemetry_on then begin
    stop ();
    on_stop ();
    Option.iter
      (fun f ->
        Printf.printf "wrote telemetry (%d samples) to %s\n"
          (sample_count ()) f)
      s.telemetry_out
  end;
  (match s.trace_out with
  | None -> ()
  | Some f -> (
      Trace_event.stop ();
      match Trace_event.write_file f with
      | () ->
          Printf.printf "wrote chrome trace to %s (load in chrome://tracing)\n"
            f
      | exception Sys_error msg ->
          Printf.eprintf "cannot write trace: %s\n" msg;
          exit 2));
  r

(* -- Prometheus text exposition ----------------------------------------- *)

(* https://prometheus.io/docs/instrumenting/exposition_formats/ — the
   0.0.4 text format: HELP/TYPE comment lines, then samples; histogram
   buckets are cumulative with an le label and a closing +Inf. *)

let prom_name name =
  let b = Buffer.create (String.length name + 4) in
  Buffer.add_string b "sfr_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

let render_prometheus ?(gauges = []) () =
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  let help name orig kind =
    line "# HELP %s %s" name orig;
    line "# TYPE %s %s" name kind
  in
  List.iter
    (fun e ->
      match e with
      | Metrics.Exp_counter (orig, v) ->
          let n = prom_name orig in
          help n orig "counter";
          line "%s %d" n v
      | Metrics.Exp_gauge (orig, v) ->
          let n = prom_name orig in
          help n orig "gauge";
          line "%s %d" n v
      | Metrics.Exp_histogram { e_name; e_buckets; e_count; e_sum } ->
          let n = prom_name e_name in
          help n e_name "histogram";
          let cum = ref 0 in
          List.iter
            (fun (ub, c) ->
              cum := !cum + c;
              if ub <> max_int then line "%s_bucket{le=\"%d\"} %d" n ub !cum)
            e_buckets;
          line "%s_bucket{le=\"+Inf\"} %d" n e_count;
          line "%s_sum %d" n e_sum;
          line "%s_count %d" n e_count)
    (Metrics.export ());
  List.iter
    (fun (orig, v) ->
      let n = prom_name orig in
      help n orig "gauge";
      line "%s %d" n v)
    gauges;
  Buffer.contents b

(* -- Prometheus grammar check ------------------------------------------- *)

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c = is_name_start c || (c >= '0' && c <= '9')

let scan_name s i =
  let n = String.length s in
  if i >= n || not (is_name_start s.[i]) then None
  else begin
    let j = ref (i + 1) in
    while !j < n && is_name_char s.[!j] do
      incr j
    done;
    Some (String.sub s i (!j - i), !j)
  end

(* one pass over "{k="v",...}"; returns the index past the closing brace *)
let scan_labels s i =
  let n = String.length s in
  let rec pair i =
    match scan_name s i with
    | None -> Error "expected a label name"
    | Some (_, i) ->
        if i + 1 >= n || s.[i] <> '=' || s.[i + 1] <> '"' then
          Error "expected =\" after label name"
        else begin
          let j = ref (i + 2) in
          let ok = ref true in
          while !ok && !j < n && s.[!j] <> '"' do
            if s.[!j] = '\\' then
              if !j + 1 < n then j := !j + 2 else ok := false
            else incr j
          done;
          if (not !ok) || !j >= n then Error "unterminated label value"
          else
            let i = !j + 1 in
            if i < n && s.[i] = ',' then pair (i + 1)
            else if i < n && s.[i] = '}' then Ok (i + 1)
            else Error "expected , or } after label value"
        end
  in
  pair i

let valid_value v =
  match String.trim v with
  | "" -> false
  | "+Inf" | "-Inf" | "NaN" -> true
  | v -> float_of_string_opt v <> None

let base_family declared name =
  let strip suffix =
    let ls = String.length suffix and ln = String.length name in
    if ln > ls && String.sub name (ln - ls) ls = suffix then
      Some (String.sub name 0 (ln - ls))
    else None
  in
  if Hashtbl.mem declared name then Some name
  else
    List.find_map
      (fun sfx ->
        match strip sfx with
        | Some base when Hashtbl.find_opt declared base = Some "histogram" ->
            Some base
        | _ -> None)
      [ "_bucket"; "_sum"; "_count" ]

let check_prometheus text =
  let declared : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let err ln msg = Error (Printf.sprintf "line %d: %s" ln msg) in
  let lines = String.split_on_char '\n' text in
  let rec go ln nsamples = function
    | [] -> Ok nsamples
    | "" :: rest ->
        if rest = [] then Ok nsamples (* trailing newline *)
        else err ln "blank line before end of exposition"
    | line :: rest when String.length line > 0 && line.[0] = '#' -> (
        let valid_metric_name n =
          scan_name n 0 = Some (n, String.length n)
        in
        match String.split_on_char ' ' line with
        | "#" :: "TYPE" :: name :: [ kind ] ->
            if not (valid_metric_name name) then
              err ln (Printf.sprintf "invalid metric name %S" name)
            else if
              not
                (List.mem kind
                   [ "counter"; "gauge"; "histogram"; "summary"; "untyped" ])
            then err ln (Printf.sprintf "unknown metric type %S" kind)
            else begin
              Hashtbl.replace declared name kind;
              go (ln + 1) nsamples rest
            end
        | "#" :: "TYPE" :: _ -> err ln "malformed TYPE line"
        | "#" :: "HELP" :: name :: (_ :: _) ->
            if not (valid_metric_name name) then
              err ln (Printf.sprintf "invalid metric name %S" name)
            else go (ln + 1) nsamples rest
        | "#" :: "HELP" :: _ -> err ln "HELP line without help text"
        | _ -> err ln "malformed comment line (expected # HELP or # TYPE)")
    | line :: rest -> (
        match scan_name line 0 with
        | None -> err ln "expected a metric name"
        | Some (name, i) -> (
            let after_labels =
              if i < String.length line && line.[i] = '{' then
                scan_labels line (i + 1)
              else Ok i
            in
            match after_labels with
            | Error msg -> err ln msg
            | Ok i ->
                if
                  i >= String.length line
                  || (line.[i] <> ' ' && line.[i] <> '\t')
                then err ln "expected a space before the value"
                else if
                  not
                    (valid_value
                       (String.sub line i (String.length line - i)))
                then err ln "invalid sample value"
                else if base_family declared name = None then
                  err ln
                    (Printf.sprintf "sample %S has no preceding # TYPE" name)
                else go (ln + 1) (nsamples + 1) rest))
  in
  go 1 0 lines

(* -- JSONL lint --------------------------------------------------------- *)

let lint_jsonl text =
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text)
  in
  match lines with
  | [] -> Error "empty telemetry file"
  | header :: rest -> (
      match Json_min.parse header with
      | Error e -> Error (Printf.sprintf "header: %s" e)
      | Ok h -> (
          match Json_min.member "telemetry_schema" h with
          | Some (Json_min.Num v) when int_of_float v = schema_version ->
              let rec check ln n = function
                | [] -> Ok n
                | line :: rest -> (
                    match Json_min.parse line with
                    | Error e -> Error (Printf.sprintf "line %d: %s" ln e)
                    | Ok j ->
                        let has k =
                          match Json_min.member k j with
                          | Some _ -> true
                          | None -> false
                        in
                        if
                          has "seq" && has "t_ms" && has "counters"
                          && has "gauges"
                        then check (ln + 1) (n + 1) rest
                        else
                          Error
                            (Printf.sprintf
                               "line %d: missing a required sample field" ln))
              in
              check 2 0 rest
          | Some _ ->
              Error
                (Printf.sprintf "header: telemetry_schema is not %d"
                   schema_version)
          | None -> Error "header: missing telemetry_schema"))

(* -- utilization-over-time rendering ------------------------------------ *)

let rate d dt_ms = if dt_ms <= 0.0 then 0.0 else float_of_int d *. 1000.0 /. dt_ms

let pp_timeline ppf =
  match samples () with
  | [] | [ _ ] -> Format.fprintf ppf "  (telemetry: fewer than 2 samples)@."
  | first :: _ as ss ->
      Format.fprintf ppf
        "  %10s %12s %12s %10s %12s  %s@." "t (ms)" "tasks/s" "steals/s"
        "deque" "gc words" "marks";
      let prev_t = ref first.t_ms in
      List.iteri
        (fun i s ->
          let dt = s.t_ms -. !prev_t in
          prev_t := s.t_ms;
          if i > 0 then begin
            let c n = Option.value ~default:0 (List.assoc_opt n s.counters) in
            let g n = Option.value ~default:0 (List.assoc_opt n s.gauges) in
            Format.fprintf ppf "  %10.1f %12.0f %12.0f %10d %12d  %s@." s.t_ms
              (rate (c "runtime.tasks") dt)
              (rate (c "runtime.steals") dt)
              (g "sched.deque_depth") (g "gc.heap_words")
              (String.concat "," s.marks)
          end)
        ss
