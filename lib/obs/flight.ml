type kind = Begin | End | Instant

type entry = {
  ts_ns : int;
  name : string;
  kind : kind;
  arg : int;
  dom : int;
  seq : int;
}

(* One ring per Metrics-style domain slot. Entries are immutable records
   written through an option array: a record store is one pointer write,
   so a torn entry is impossible; a mod-128 slot collision can interleave
   two domains' sequences, which a diagnostic buffer tolerates. *)
let capacity = 512
let nrings = 128

type ring = { mutable seq : int; slots : entry option array }

let rings = Array.init nrings (fun _ -> { seq = 0; slots = Array.make capacity None })

let on = Atomic.make true

let arm () = Atomic.set on true
let disarm () = Atomic.set on false
let armed () = Atomic.get on

let note ?(arg = 0) ?(kind = Instant) name =
  if Atomic.get on then begin
    let dom = (Domain.self () :> int) in
    let r = rings.(dom land (nrings - 1)) in
    let seq = r.seq in
    r.seq <- seq + 1;
    r.slots.(seq land (capacity - 1)) <-
      Some { ts_ns = Prof.now_ns (); name; kind; arg; dom; seq }
  end

let wrap ?arg name f =
  note ?arg ~kind:Begin name;
  Fun.protect ~finally:(fun () -> note ?arg ~kind:End name) f

let clear () =
  Array.iter
    (fun r ->
      r.seq <- 0;
      Array.fill r.slots 0 capacity None)
    rings

let entries () =
  let acc = ref [] in
  Array.iter
    (fun r ->
      Array.iter
        (function Some e -> acc := e :: !acc | None -> ())
        r.slots)
    rings;
  List.sort
    (fun a b ->
      match compare a.ts_ns b.ts_ns with 0 -> compare a.seq b.seq | c -> c)
    !acc

(* -- rendering ---------------------------------------------------------- *)

let kind_label = function Begin -> "begin" | End -> "end" | Instant -> "."

let pp_text ppf =
  match entries () with
  | [] -> Format.fprintf ppf "  (flight recorder empty)@."
  | es ->
      let t0 = (List.hd es).ts_ns in
      List.iter
        (fun e ->
          Format.fprintf ppf "  %12.3f us  dom %-3d %-5s %s%s@."
            (float_of_int (e.ts_ns - t0) /. 1e3)
            e.dom (kind_label e.kind) e.name
            (if e.arg <> 0 then Printf.sprintf " (%d)" e.arg else ""))
        es

let to_chrome_json () =
  let es = entries () in
  let t0 = match es with [] -> 0 | e :: _ -> e.ts_ns in
  let b = Buffer.create (256 + (96 * List.length es)) in
  Buffer.add_string b "{\"traceEvents\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "{\"name\":\"";
      Json_min.escape b e.name;
      Buffer.add_string b "\",\"cat\":\"flight\",\"ph\":\"";
      Buffer.add_string b
        (match e.kind with Begin -> "B" | End -> "E" | Instant -> "i");
      Buffer.add_string b "\"";
      if e.kind = Instant then Buffer.add_string b ",\"s\":\"t\"";
      if e.arg <> 0 then
        Buffer.add_string b (Printf.sprintf ",\"args\":{\"arg\":%d}" e.arg);
      Buffer.add_string b
        (Printf.sprintf ",\"ts\":%.3f,\"pid\":1,\"tid\":%d}"
           (float_of_int (e.ts_ns - t0) /. 1e3)
           e.dom))
    es;
  Buffer.add_string b "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents b

let write_chrome path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_chrome_json ()))

(* -- crash dumping ------------------------------------------------------ *)

let crash_path = Atomic.make (Sys.getenv_opt "SFR_FLIGHT_DUMP")
let crash_dumped = Atomic.make false

let set_crash_path p = Atomic.set crash_path p

let reset_crash_guard () = Atomic.set crash_dumped false

(* Other observability components (the telemetry sampler's JSONL stream,
   most importantly) register flush work to run before the process dies
   with the flight window. Hooks must never raise into the dump path. *)
let crash_hooks : (unit -> unit) list Atomic.t = Atomic.make []

let add_crash_hook f =
  let rec loop () =
    let hooks = Atomic.get crash_hooks in
    if not (Atomic.compare_and_set crash_hooks hooks (f :: hooks)) then loop ()
  in
  loop ()

let crash_dump ~reason =
  if not (Atomic.exchange crash_dumped true) then begin
    List.iter (fun f -> try f () with _ -> ()) (Atomic.get crash_hooks);
    Format.eprintf "-- flight recorder (%s) ---------------------------@." reason;
    pp_text Format.err_formatter;
    (match Atomic.get crash_path with
    | None -> ()
    | Some path -> (
        match write_chrome path with
        | () -> Format.eprintf "flight trace written to %s@." path
        | exception Sys_error msg ->
            Format.eprintf "cannot write flight trace: %s@." msg));
    Format.eprintf "---------------------------------------------------@."
  end
