(* Chrome trace_event JSON emitter (the "JSON Array/Object Format" that
   chrome://tracing and Perfetto load). Collection is opt-in: while off,
   [with_span] costs a flag load and runs its thunk directly. While on,
   events append to a mutex-guarded buffer — span emission happens on
   parallel-construct events (create/get/steal), not per memory access,
   so the lock is not on the detectors' hot path. *)

type phase = Complete | Instant | Counter

type event = {
  name : string;
  cat : string;
  ph : phase;
  ts : float; (* microseconds since trace start *)
  dur : float; (* microseconds; Complete only *)
  pid : int;
  tid : int;
  args : (string * float) list; (* Counter series; empty otherwise *)
}

let on = Atomic.make false
let mu = Mutex.create ()
let buf : event list ref = ref []
let epoch = ref 0.0

let now_us () = (Unix.gettimeofday () -. !epoch) *. 1e6

let clear () =
  Mutex.lock mu;
  buf := [];
  Mutex.unlock mu

let start () =
  clear ();
  epoch := Unix.gettimeofday ();
  Atomic.set on true

let stop () = Atomic.set on false

let is_on () = Atomic.get on

let push e =
  Mutex.lock mu;
  buf := e :: !buf;
  Mutex.unlock mu

let tid () = (Domain.self () :> int)

let emit ?(cat = "sfr") ?(args = []) ?tid:tid_arg name ph ~ts ~dur =
  let tid = match tid_arg with Some v -> v | None -> tid () in
  push { name; cat; ph; ts; dur; pid = 1; tid; args }

let instant ?cat ?args name =
  if Atomic.get on then emit ?cat ?args name Instant ~ts:(now_us ()) ~dur:0.0

let counter ?(cat = "telemetry") name v =
  if Atomic.get on then
    emit ~cat
      ~args:[ ("value", float_of_int v) ]
      name Counter ~ts:(now_us ()) ~dur:0.0

let with_span ?cat ?args name f =
  if not (Atomic.get on) then f ()
  else begin
    let t0 = now_us () in
    Fun.protect
      ~finally:(fun () ->
        emit ?cat ?args name Complete ~ts:t0 ~dur:(now_us () -. t0))
      f
  end

let complete ?cat ?args ?tid name ~ts_us ~dur_us =
  if Atomic.get on then emit ?cat ?args ?tid name Complete ~ts:ts_us ~dur:dur_us

let events () =
  Mutex.lock mu;
  let es = List.rev !buf in
  Mutex.unlock mu;
  es

(* -- JSON rendering ----------------------------------------------------- *)

let render_event b e =
  Buffer.add_string b "{\"name\":\"";
  Json_min.escape b e.name;
  Buffer.add_string b "\",\"cat\":\"";
  Json_min.escape b e.cat;
  Buffer.add_string b "\",\"ph\":\"";
  Buffer.add_string b
    (match e.ph with Complete -> "X" | Instant -> "i" | Counter -> "C");
  Buffer.add_string b "\"";
  (match e.ph with
  | Instant -> Buffer.add_string b ",\"s\":\"t\""
  | Complete -> Buffer.add_string b (Printf.sprintf ",\"dur\":%.3f" e.dur)
  | Counter -> ());
  if e.args <> [] then begin
    (* arg keys pass through the same escaper as names: a control
       character or quote in a series label must not break the writer *)
    Buffer.add_string b ",\"args\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_char b '"';
        Json_min.escape b k;
        Buffer.add_string b (Printf.sprintf "\":%.3f" v))
      e.args;
    Buffer.add_char b '}'
  end;
  Buffer.add_string b
    (Printf.sprintf ",\"ts\":%.3f,\"pid\":%d,\"tid\":%d}" e.ts e.pid e.tid)

let to_json_string () =
  let es = events () in
  let b = Buffer.create (256 + (96 * List.length es)) in
  Buffer.add_string b "{\"traceEvents\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      render_event b e)
    es;
  Buffer.add_string b "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents b

let write_file path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json_string ()))
