module Events = Sfr_runtime.Events
module Detector = Sfr_detect.Detector
module Race = Sfr_detect.Race
module Detect_error = Sfr_detect.Detect_error
module Metrics = Sfr_obs.Metrics

let m_events = Metrics.counter "eventlog.stream.events"
let m_steps = Metrics.counter "eventlog.stream.steps"

(* Hot-path attribution for the serve layer's ingest: one [step] is the
   analysis work a drained chunk pays for. *)
let t_step = Sfr_obs.Prof.timer "prof.eventlog.stream_step.ns"

type error =
  | Stuck of { replayed : int; worker : int; index : int; missing : int }
  | Redefined of { worker : int; index : int; id : int }

let error_to_string = function
  | Stuck { replayed; worker; index; missing } ->
      Printf.sprintf
        "inconsistent log: replay stuck after %d events (worker %d event %d \
         waits on state %d, which nothing defines or ends)"
        replayed worker index missing
  | Redefined { worker; index; id } ->
      Printf.sprintf
        "inconsistent log: worker %d event %d redefines state %d" worker index
        id

type status =
  | Complete
  | Torn of Log_format.error
  | Inconsistent of error
  | Detector_failed of string

let status_to_string = function
  | Complete -> "complete"
  | Torn e -> Printf.sprintf "torn stream: %s" (Log_format.error_to_string e)
  | Inconsistent e -> error_to_string e
  | Detector_failed msg -> Printf.sprintf "detector failed: %s" msg

type verdict = {
  status : status;
  reports : Race.report list;
  racy_locations : int list;
  events_applied : int;
  accesses : int;
  bytes_analyzed : int;
  queries : int;
}

(* -- the state table --------------------------------------------------- *)

(* State IDs come from the log, so the table's memory must follow the
   states defined, not the largest ID named: a 15-byte log can name
   2^60. [Sfr_support.Loc_table] pages IDs 64 to a page under a bounded
   directory with an overflow map, so a recorded log (IDs dense from 0)
   sits in the directory and a far ID costs one page. A cell is created
   the first time its ID is defined or waited on. *)

type Events.state += Undefined

(* [state] once defined; [ended] once the strand's [Put] / [Returned]
   has applied. *)
type cell = { mutable state : Events.state; mutable ended : bool }

let new_states () =
  Sfr_support.Loc_table.create
    ~dummy:{ state = Undefined; ended = false }
    (fun () -> { state = Undefined; ended = false })

let cell = Sfr_support.Loc_table.get
let defined s id = (cell s id).state != Undefined
let ended s id = (cell s id).ended
let set_ended s id = (cell s id).ended <- true

(* Only called on defined IDs (readiness-checked before apply). *)
let lookup s id = (cell s id).state

exception Redefined_exn of int

let define s id v =
  let c = cell s id in
  if c.state != Undefined then raise (Redefined_exn id);
  c.state <- v

(* -- worker streams ---------------------------------------------------- *)

(* One worker stream's decoded-but-unapplied events, in stream order:
   rows [head, tail) of the same columns {!Stream_reader.batch} has,
   with each sync's lists copied into [side] (its [arg1] is the offset
   there). The head is the only candidate for application (stream order
   is program order on that worker). The columns are reused: an emptied
   stream restarts at row 0, and a full one moves its live rows to the
   front before it grows. *)
type wstream = {
  mutable op : int array;
  mutable arg0 : int array;
  mutable arg1 : int array;
  mutable arg2 : int array;
  mutable head : int;
  mutable tail : int;
  mutable side : int array;
  mutable side_tail : int;
  mutable applied : int;
}

let new_stream () =
  {
    op = [||];
    arg0 = [||];
    arg1 = [||];
    arg2 = [||];
    head = 0;
    tail = 0;
    side = [||];
    side_tail = 0;
    applied = 0;
  }

(* Entries of the sync whose lists start at [side.(o)]. *)
let sync_len side o =
  let n = side.(o) in
  n + side.(o + 1 + n) + 2

(* Move the live rows and side entries to the front of columns with
   room for [rows] more rows and [side] more entries. *)
let make_room ws ~rows ~side =
  let live = ws.tail - ws.head in
  let side_lo =
    let rec first i =
      if i = ws.tail then ws.side_tail
      else if ws.op.(i) = Log_format.op_sync then ws.arg1.(i)
      else first (i + 1)
    in
    first ws.head
  in
  let side_live = ws.side_tail - side_lo in
  let resize a live need =
    let cap = Array.length a in
    if live + need <= cap then a
    else Array.make (max 64 (max (live + need) (2 * cap))) 0
  in
  let move a a' = Array.blit a ws.head a' 0 live; a' in
  let op' = resize ws.op live rows in
  ws.op <- move ws.op op';
  ws.arg0 <- move ws.arg0 (resize ws.arg0 live rows);
  ws.arg1 <- move ws.arg1 (resize ws.arg1 live rows);
  ws.arg2 <- move ws.arg2 (resize ws.arg2 live rows);
  let side' = resize ws.side side_live side in
  Array.blit ws.side side_lo side' 0 side_live;
  ws.side <- side';
  for i = 0 to live - 1 do
    if ws.op.(i) = Log_format.op_sync then ws.arg1.(i) <- ws.arg1.(i) - side_lo
  done;
  ws.head <- 0;
  ws.tail <- live;
  ws.side_tail <- side_live

(* Append row [r] of the decoder's batch. *)
let push ws (b : Stream_reader.batch) r =
  let op = b.op.(r) in
  let n_side = if op = Log_format.op_sync then sync_len b.side b.arg1.(r) else 0 in
  if ws.tail = Array.length ws.op || ws.side_tail + n_side > Array.length ws.side then
    make_room ws ~rows:1 ~side:n_side;
  let i = ws.tail in
  ws.op.(i) <- op;
  ws.arg0.(i) <- b.arg0.(r);
  ws.arg2.(i) <- b.arg2.(r);
  if op = Log_format.op_sync then begin
    Array.blit b.side b.arg1.(r) ws.side ws.side_tail n_side;
    ws.arg1.(i) <- ws.side_tail;
    ws.side_tail <- ws.side_tail + n_side
  end
  else ws.arg1.(i) <- b.arg1.(r);
  ws.tail <- i + 1

type t = {
  reader : Stream_reader.t;
  det : Detector.t;
  cb : Events.callbacks;
  mutable streams : wstream array;
  mutable first_worker : int;  (** worker of the first event; -1 before *)
  states : cell Sfr_support.Loc_table.t;
  mutable applied : int;
  mutable accesses : int;
  mutable failed : status option;  (** first latched failure, sticky *)
  mutable final : verdict option;  (** close is idempotent *)
}

let create det =
  let states = new_states () in
  (* the root state exists before any event *)
  define states 0 det.Detector.root;
  {
    reader = Stream_reader.create ();
    det;
    cb = det.Detector.callbacks;
    streams = [||];
    first_worker = -1;
    states;
    applied = 0;
    accesses = 0;
    failed = None;
    final = None;
  }

let feed t bytes ~pos ~len =
  if t.failed = None && t.final = None then
    Stream_reader.feed t.reader bytes ~pos ~len

let ensure_stream t w =
  if w >= Array.length t.streams then begin
    let a =
      Array.init
        (max (w + 1) (2 * Array.length t.streams))
        (fun i -> if i < Array.length t.streams then t.streams.(i) else new_stream ())
    in
    t.streams <- a
  end

(* The first of the [n] IDs at [side.(o) ..] that fails [ok], or -1. *)
let rec first_failing ok side o n =
  if n = 0 then -1
  else if ok side.(o) then first_failing ok side (o + 1) (n - 1)
  else side.(o)

(* The state the event at row [i] of [ws] waits on, or -1 if it is
   ready: the first of its inputs (in record order) not yet defined,
   else the first joined strand not yet ended. A defined state only
   says its strand has started. A join also needs the joined strand to
   have ended — a sync waits for each spawned child's [Returned], a get
   for the future's [Put] — or it could apply ahead of that strand's
   last accesses on another worker stream. *)
let waits_on t ws i =
  let s = t.states in
  let op = ws.op.(i) and a0 = ws.arg0.(i) in
  if not (defined s a0) then a0
  else if op = Log_format.op_get then
    let put = ws.arg1.(i) in
    if defined s put && ended s put then -1 else put
  else if op = Log_format.op_returned then
    let child_last = ws.arg1.(i) in
    if defined s child_last then -1 else child_last
  else if op = Log_format.op_sync then begin
    let side = ws.side and o = ws.arg1.(i) in
    let nsp = side.(o) in
    let spawned = o + 1 and created = o + 2 + nsp in
    let m = first_failing (defined s) side spawned nsp in
    if m >= 0 then m
    else
      let m = first_failing (defined s) side created side.(o + 1 + nsp) in
      if m >= 0 then m else first_failing (ended s) side spawned nsp
  end
  else -1

(* The state list of the [n] IDs at [side.(o) ..]. *)
let rec states_of s side o n acc =
  if n = 0 then acc else states_of s side o (n - 1) (lookup s side.(o + n - 1) :: acc)

(* -- the merge loop ----------------------------------------------------- *)

let latch t status = if t.failed = None then t.failed <- Some status

(* Apply the (ready) event at row [i] of [ws] to the client callbacks,
   threading state IDs through the state table. *)
let apply_event t ws i =
  let s = t.states and cb = t.cb in
  let op = ws.op.(i) and a0 = ws.arg0.(i) in
  if op = Log_format.op_read || op = Log_format.op_write then begin
    let state = lookup s a0 and loc = ws.arg1.(i) in
    if op = Log_format.op_read then cb.on_read state loc else cb.on_write state loc;
    t.accesses <- t.accesses + 1
  end
  else if op = Log_format.op_work then cb.on_work (lookup s a0) ws.arg1.(i)
  else if op = Log_format.op_spawn || op = Log_format.op_create then begin
    let child, cont =
      (if op = Log_format.op_spawn then cb.on_spawn else cb.on_create) (lookup s a0)
    in
    define s ws.arg1.(i) child;
    define s ws.arg2.(i) cont
  end
  else if op = Log_format.op_sync then begin
    let side = ws.side and o = ws.arg1.(i) in
    let nsp = side.(o) in
    let spawned_lasts = states_of s side (o + 1) nsp [] in
    let created_firsts = states_of s side (o + 2 + nsp) side.(o + 1 + nsp) [] in
    define s ws.arg2.(i) (cb.on_sync ~cur:(lookup s a0) ~spawned_lasts ~created_firsts)
  end
  else if op = Log_format.op_put then begin
    cb.on_put (lookup s a0);
    set_ended s a0
  end
  else if op = Log_format.op_get then
    define s ws.arg2.(i) (cb.on_get ~cur:(lookup s a0) ~put:(lookup s ws.arg1.(i)))
  else begin
    let child_last = ws.arg1.(i) in
    cb.on_returned ~cont:(lookup s a0) ~child_last:(lookup s child_last);
    set_ended s child_last
  end

(* Apply worker [w]'s ready head events; true if any applied. *)
let sweep t w ws =
  let first = ws.head in
  (try
     while ws.head < ws.tail && waits_on t ws ws.head < 0 do
       apply_event t ws ws.head;
       ws.head <- ws.head + 1;
       ws.applied <- ws.applied + 1
     done
   with
  | Redefined_exn id ->
      latch t (Inconsistent (Redefined { worker = w; index = ws.applied; id }))
  | Detect_error.Error e -> latch t (Detector_failed (Detect_error.to_string e))
  | exn -> latch t (Detector_failed (Printexc.to_string exn)));
  let n = ws.head - first in
  t.applied <- t.applied + n;
  Metrics.add m_events n;
  if ws.head = ws.tail then begin
    ws.head <- 0;
    ws.tail <- 0;
    ws.side_tail <- 0
  end;
  n > 0

(* Sweep the streams, applying every ready head, until a full sweep makes
   no progress (then: wait for more input; whether that's a deadlock is
   only decidable at close). *)
let merge t =
  let progress = ref true in
  while !progress && t.failed = None do
    progress := false;
    Array.iteri
      (fun w ws -> if t.failed = None && ws.head < ws.tail && sweep t w ws then progress := true)
      t.streams
  done

(* Queue the decoded rows on their worker streams. A serial-only
   detector refuses a second worker stream before applying any of its
   events. *)
let enqueue t (b : Stream_reader.batch) =
  for r = 0 to b.rows - 1 do
    if t.failed = None then begin
      let w = b.worker.(r) in
      if w <> t.first_worker then
        if t.first_worker < 0 then t.first_worker <- w
        else if not t.det.Detector.supports_parallel then
          latch t
            (Detector_failed
               (Printf.sprintf
                  "%s requires a depth-first event order, but the log has \
                   more than one worker stream (record with the serial \
                   executor)"
                  t.det.Detector.name));
      if t.failed = None then begin
        ensure_stream t w;
        push t.streams.(w) b r
      end
    end
  done

let step t =
  if t.failed = None && t.final = None then begin
    Metrics.incr m_steps;
    let pt = Sfr_obs.Prof.start () in
    (match Stream_reader.drain t.reader with
    | Ok batch -> enqueue t batch
    | Error e -> latch t (Torn e));
    if t.failed = None then merge t;
    Sfr_obs.Prof.stop t_step pt
  end

(* The first blocked stream head and the state it waits on. *)
let find_blocked t =
  let blocked = ref None in
  Array.iteri
    (fun w ws ->
      if !blocked = None && ws.head < ws.tail then
        let missing = waits_on t ws ws.head in
        if missing >= 0 then blocked := Some (w, ws.applied, missing))
    t.streams;
  !blocked

let undrained t = Array.exists (fun ws -> ws.head < ws.tail) t.streams

let make_verdict t status =
  let reports = Race.reports t.det.Detector.races in
  {
    status;
    reports;
    racy_locations = List.map (fun (r : Race.report) -> r.Race.loc) reports;
    events_applied = t.applied;
    accesses = t.accesses;
    bytes_analyzed = Stream_reader.consumed t.reader;
    queries = t.det.Detector.queries ();
  }

let partial t =
  match t.final with
  | Some v -> v
  | None ->
      let status =
        match t.failed with
        | Some s -> s
        | None -> (
            match Stream_reader.finished t.reader with
            | Some _ when not (undrained t) -> Complete
            | _ ->
                Torn
                  (Log_format.Truncated
                     {
                       offset = Stream_reader.consumed t.reader;
                       while_ = "stream still open";
                     }))
      in
      make_verdict t status

let close t =
  match t.final with
  | Some v -> v
  | None ->
      step t;
      let status =
        match t.failed with
        | Some s -> s
        | None -> (
            match Stream_reader.finish t.reader with
            | Ok _ when not (undrained t) -> Complete
            | Ok _ ->
                let worker, index, missing =
                  Option.value (find_blocked t) ~default:(0, 0, 0)
                in
                Inconsistent
                  (Stuck { replayed = t.applied; worker; index; missing })
            | Error e -> Torn e)
      in
      let v = make_verdict t status in
      t.final <- Some v;
      v

let run_file det path =
  let t = create det in
  In_channel.with_open_bin path (fun ic ->
      let buf = Bytes.create 4096 in
      let rec loop () =
        let n = In_channel.input ic buf 0 (Bytes.length buf) in
        if n > 0 then begin
          feed t buf ~pos:0 ~len:n;
          step t;
          if t.failed = None then loop ()
        end
      in
      loop ());
  close t

(* -- sharded replay ------------------------------------------------------ *)

(* Fibonacci multiplicative hash: spreads clustered location ranges (each
   workload allocates a contiguous block) evenly over the shards. *)
let shard_of ~loc ~shards =
  if shards = 1 then 0 else (loc * 0x9E3779B1 land max_int) mod shards

(* [det] checking only the accesses to shard [s]'s locations. *)
let restrict ~shards s (det : Detector.t) =
  if shards = 1 then det
  else
    let cb = det.Detector.callbacks in
    let mine loc = shard_of ~loc ~shards = s in
    let on_read st loc = if mine loc then cb.on_read st loc
    and on_write st loc = if mine loc then cb.on_write st loc in
    { det with callbacks = { cb with on_read; on_write } }

let run_sharded ~shards make path =
  let max = Sfr_runtime.Par_exec.max_workers in
  if shards < 1 || shards > max then
    invalid_arg (Printf.sprintf "Stream_replay.run_sharded: shards must be in 1..%d" max);
  let dets = List.init shards (fun s -> restrict ~shards s (make ())) in
  let run det = try Ok (run_file det path) with e -> Error e in
  let replay_on_domain det =
    Domain.spawn (fun () ->
        Metrics.domain_enter ();
        let r = run det in
        Metrics.domain_exit ();
        r)
  in
  let others = List.map replay_on_domain (List.tl dets) in
  let first = run (List.hd dets) in
  let vs =
    List.map (function Ok v -> v | Error e -> raise e) (first :: List.map Domain.join others)
  in
  (* the shards partition the locations, so sorting the concatenated
     reports by location is a disjoint merge *)
  let reports =
    List.concat_map (fun v -> v.reports) vs
    |> List.stable_sort (fun (a : Race.report) b -> compare a.Race.loc b.Race.loc)
  in
  let v = Option.value ~default:(List.hd vs) (List.find_opt (fun v -> v.status <> Complete) vs) in
  {
    v with
    reports;
    racy_locations = List.map (fun (r : Race.report) -> r.Race.loc) reports;
    queries = List.fold_left (fun n v -> n + v.queries) 0 vs;
  }
