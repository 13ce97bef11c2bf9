(* Structured audit log for the ingest daemon: one typed record per
   session-lifecycle edge, streamed as JSONL with the Telemetry writer
   discipline (schema header line, per-record flush, a Flight crash
   hook flushing the OS tail) plus a bounded in-memory tail ring so the
   crash dump and the admin plane can show recent history without
   touching the file. Disarmed (no sink open), [emit] is one atomic
   flag load. *)

module Flight = Sfr_obs.Flight
module Prof = Sfr_obs.Prof
module Json_min = Sfr_obs.Json_min

let schema_version = 1
let default_tail_capacity = 64

type record =
  | Session_open of { session : int }
  | Hello of { session : int; version : int }
  | Credit of { session : int; grant : int }
  | Shed of { session : int; evicted : int }
  | Deadline of { session : int; age_ms : int }
  | Idle of { session : int; quiet_ms : int }
  | Disconnect of { session : int; bytes_analyzed : int }
  | Verdict of {
      session : int;
      code : string;
      races : int;
      events : int;
      bytes_analyzed : int;
    }

let event_name = function
  | Session_open _ -> "session_open"
  | Hello _ -> "hello"
  | Credit _ -> "credit"
  | Shed _ -> "shed"
  | Deadline _ -> "deadline"
  | Idle _ -> "idle"
  | Disconnect _ -> "disconnect"
  | Verdict _ -> "verdict"

let session_of = function
  | Session_open { session }
  | Hello { session; _ }
  | Credit { session; _ }
  | Shed { session; _ }
  | Deadline { session; _ }
  | Idle { session; _ }
  | Disconnect { session; _ }
  | Verdict { session; _ } ->
      session

(* Event-specific integer fields beyond [session]. *)
let int_fields = function
  | Session_open _ -> []
  | Hello { version; _ } -> [ ("version", version) ]
  | Credit { grant; _ } -> [ ("grant", grant) ]
  | Shed { evicted; _ } -> [ ("evicted", evicted) ]
  | Deadline { age_ms; _ } -> [ ("age_ms", age_ms) ]
  | Idle { quiet_ms; _ } -> [ ("quiet_ms", quiet_ms) ]
  | Disconnect { bytes_analyzed; _ } ->
      [ ("bytes_analyzed", bytes_analyzed) ]
  | Verdict { races; events; bytes_analyzed; _ } ->
      [ ("races", races); ("events", events); ("bytes_analyzed", bytes_analyzed) ]

let to_json ~seq ~t_ms r =
  let b = Buffer.create 128 in
  Printf.bprintf b "{\"seq\":%d,\"t_ms\":%.3f,\"event\":\"%s\",\"session\":%d"
    seq t_ms (event_name r) (session_of r);
  (match r with
  | Verdict { code; _ } ->
      Buffer.add_string b ",\"code\":\"";
      Json_min.escape b code;
      Buffer.add_char b '"'
  | _ -> ());
  List.iter (fun (k, v) -> Printf.bprintf b ",\"%s\":%d" k v) (int_fields r);
  Buffer.add_char b '}';
  Buffer.contents b

let pp_record fmt r =
  Format.fprintf fmt "%s session=%d" (event_name r) (session_of r);
  (match r with
  | Verdict { code; _ } -> Format.fprintf fmt " code=%s" code
  | _ -> ());
  List.iter (fun (k, v) -> Format.fprintf fmt " %s=%d" k v) (int_fields r)

(* -- the sink ----------------------------------------------------------- *)

type sink = {
  oc : out_channel;
  epoch_ns : int;
  mutable seq : int;
  ring : (float * record) option array;  (** bounded recent-record tail *)
  cap : int;
  mutable closed : bool;
}

let mu = Mutex.create ()
let armed_flag = Atomic.make false

(* [current] survives [close_sink] so the tail stays inspectable (crash
   dumps fire after the daemon's own teardown began). *)
let current : sink option ref = ref None

let armed () = Atomic.get armed_flag

let header_json () =
  Printf.sprintf "{\"audit_schema\":%d,\"unix_time\":%.3f}" schema_version
    (Unix.gettimeofday ())

let open_sink ?(tail_capacity = default_tail_capacity) ~path () =
  if tail_capacity < 1 then
    invalid_arg "Audit.open_sink: tail_capacity must be >= 1";
  Mutex.lock mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock mu)
    (fun () ->
      (match !current with
      | Some s when not s.closed ->
          s.closed <- true;
          close_out s.oc
      | _ -> ());
      let oc = open_out path in
      output_string oc (header_json ());
      output_char oc '\n';
      flush oc;
      current :=
        Some
          {
            oc;
            epoch_ns = Prof.now_ns ();
            seq = 0;
            ring = Array.make tail_capacity None;
            cap = tail_capacity;
            closed = false;
          };
      Atomic.set armed_flag true)

let close_sink () =
  Mutex.lock mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock mu)
    (fun () ->
      Atomic.set armed_flag false;
      match !current with
      | Some s when not s.closed ->
          s.closed <- true;
          close_out s.oc
      | _ -> ())

let emit r =
  if Atomic.get armed_flag then begin
    Mutex.lock mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock mu)
      (fun () ->
        match !current with
        | Some s when not s.closed ->
            let t_ms = float_of_int (Prof.now_ns () - s.epoch_ns) /. 1e6 in
            output_string s.oc (to_json ~seq:s.seq ~t_ms r);
            output_char s.oc '\n';
            (* flushed per record: the crash hook then only has to flush
               the OS-buffered tail, and a killed daemon loses nothing *)
            flush s.oc;
            s.ring.(s.seq mod s.cap) <- Some (t_ms, r);
            s.seq <- s.seq + 1
        | _ -> ())
  end

let record_count () =
  Mutex.lock mu;
  let n = match !current with Some s -> s.seq | None -> 0 in
  Mutex.unlock mu;
  n

let tail () =
  Mutex.lock mu;
  let r =
    match !current with
    | None -> []
    | Some s ->
        let first = max 0 (s.seq - s.cap) in
        List.filter_map
          (fun i -> s.ring.(i mod s.cap))
          (List.init (s.seq - first) (fun k -> first + k))
  in
  Mutex.unlock mu;
  r

let tail_to_text () =
  let b = Buffer.create 256 in
  List.iter
    (fun (t_ms, r) ->
      Buffer.add_string b
        (Format.asprintf "audit: t=%.1fms %a\n" t_ms pp_record r))
    (tail ());
  Buffer.contents b

(* crash safety: flush the stream even if the process dies mid-write *)
let () =
  Flight.add_crash_hook (fun () ->
      match !current with
      | Some { oc; closed = false; _ } -> ( try flush oc with _ -> ())
      | _ -> ())

(* -- lint --------------------------------------------------------------- *)

let known_events =
  [
    "session_open";
    "hello";
    "credit";
    "shed";
    "deadline";
    "idle";
    "disconnect";
    "verdict";
  ]

(* Fields every record of the given event must carry (beyond the
   universal seq/t_ms/event). *)
let required_fields = function
  | "session_open" -> [ "session" ]
  | "hello" -> [ "session"; "version" ]
  | "credit" -> [ "session"; "grant" ]
  | "shed" -> [ "session"; "evicted" ]
  | "deadline" -> [ "session"; "age_ms" ]
  | "idle" -> [ "session"; "quiet_ms" ]
  | "disconnect" -> [ "session"; "bytes_analyzed" ]
  | "verdict" -> [ "session"; "code"; "races"; "events"; "bytes_analyzed" ]
  | _ -> []

let lint_jsonl text =
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text)
  in
  match lines with
  | [] -> Error "empty audit file"
  | header :: rest -> (
      match Json_min.parse header with
      | Error e -> Error (Printf.sprintf "header: %s" e)
      | Ok h -> (
          match Json_min.member "audit_schema" h with
          | Some (Json_min.Num v) when int_of_float v = schema_version ->
              let rec check ln prev_seq n = function
                | [] -> Ok n
                | line :: rest -> (
                    match Json_min.parse line with
                    | Error e -> Error (Printf.sprintf "line %d: %s" ln e)
                    | Ok j -> (
                        let num k =
                          match Json_min.member k j with
                          | Some (Json_min.Num v) -> Some v
                          | _ -> None
                        in
                        match (num "seq", num "t_ms", Json_min.member "event" j)
                        with
                        | None, _, _ ->
                            Error (Printf.sprintf "line %d: missing seq" ln)
                        | _, None, _ ->
                            Error (Printf.sprintf "line %d: missing t_ms" ln)
                        | _, _, (None | Some (Json_min.Null | Json_min.Bool _
                                | Json_min.Num _ | Json_min.Arr _
                                | Json_min.Obj _)) ->
                            Error
                              (Printf.sprintf "line %d: missing event name" ln)
                        | Some seq, Some _, Some (Json_min.Str ev) ->
                            if not (List.mem ev known_events) then
                              Error
                                (Printf.sprintf "line %d: unknown event %S" ln
                                   ev)
                            else if int_of_float seq <= prev_seq then
                              Error
                                (Printf.sprintf
                                   "line %d: seq %d not increasing (prev %d)"
                                   ln (int_of_float seq) prev_seq)
                            else
                              let missing =
                                List.find_opt
                                  (fun k -> Json_min.member k j = None)
                                  (required_fields ev)
                              in
                              (match missing with
                              | Some k ->
                                  Error
                                    (Printf.sprintf
                                       "line %d: %s record missing %S" ln ev k)
                              | None ->
                                  check (ln + 1) (int_of_float seq) (n + 1)
                                    rest)))
              in
              check 2 (-1) 0 rest
          | Some _ ->
              Error
                (Printf.sprintf "header: audit_schema is not %d" schema_version)
          | None -> Error "header: missing audit_schema"))
