module Events = Sfr_runtime.Events
module Detector = Sfr_detect.Detector
module Sf_order = Sfr_detect.Sf_order
module Access_history = Sfr_detect.Access_history
module Race = Sfr_detect.Race
module Detect_error = Sfr_detect.Detect_error
module Metrics = Sfr_obs.Metrics

let m_events = Metrics.counter "eventlog.stream.events"
let m_steps = Metrics.counter "eventlog.stream.steps"
let m_shard_checks = Metrics.counter "eventlog.stream.shard_checks"

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

type mode = Detector of Detector.t | Sharded of int

type verdict = {
  status : status;
  reports : Race.report list;
  racy_locations : int list;
  events_applied : int;
  accesses : int;
  shard_sizes : int array;
  bytes_analyzed : int;
  queries : int;
}

(* One worker stream's undecoded-but-arrived events: a FIFO whose head
   is the only candidate for application (stream order is program order
   on that worker). *)
type wstream = { q : Log_format.event Queue.t; mutable applied : int }

type access = { state : Events.state; loc : int; is_write : bool }

(* Pending accesses that trigger a parallel shard check. *)
let access_batch = 8192

type shard_state = {
  n : int;
  histories : Events.state Access_history.t array;
  races : Race.t array;
  pending : access list ref array;  (** newest-first; reversed at check *)
  mutable n_pending : int;
  sizes : int array;  (** accesses routed to each shard so far *)
  precedes : Events.state -> Events.state -> bool;
}

type t = {
  reader : Stream_reader.t;
  det : Detector.t;
  shards : shard_state option;  (** [None] = inline checking *)
  mutable streams : wstream array;
  mutable first_worker : int;  (** worker of the first event; -1 before *)
  mutable states : Events.state option array;
  mutable ended : bool array;  (** strand's [Put] / [Returned] applied *)
  mutable applied : int;
  mutable accesses : int;
  mutable failed : status option;  (** first latched failure, sticky *)
  mutable final : verdict option;  (** close is idempotent *)
}

let create mode =
  let det, shards =
    match mode with
    | Detector det -> (det, None)
    | Sharded n ->
        if n < 1 then invalid_arg "Stream_replay.create: shards must be >= 1";
        let det, precedes = Sf_order.make_with_precedes () in
        ( det,
          Some
            {
              n;
              histories =
                Array.init n (fun _ ->
                    Access_history.create ~sync:`Unsynchronized
                      Access_history.Keep_all);
              races = Array.init n (fun _ -> Race.create ());
              pending = Array.init n (fun _ -> ref []);
              n_pending = 0;
              sizes = Array.make n 0;
              precedes;
            } )
  in
  {
    reader = Stream_reader.create ();
    det;
    shards;
    streams = [||];
    first_worker = -1;
    states = Array.make 64 None;
    ended = Array.make 64 false;
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
        (fun i ->
          if i < Array.length t.streams then t.streams.(i)
          else { q = Queue.create (); applied = 0 })
    in
    t.streams <- a
  end

let ensure_state t id =
  let n = Array.length t.states in
  if id >= n then begin
    let n' = max (id + 1) (2 * n) in
    let a = Array.make n' None and e = Array.make n' false in
    Array.blit t.states 0 a 0 n;
    Array.blit t.ended 0 e 0 n;
    t.states <- a;
    t.ended <- e
  end

let lookup t id =
  match t.states.(id) with
  | Some s -> s
  | None -> assert false (* readiness-checked before apply *)

exception Redefined_exn of int

let define t id s =
  ensure_state t id;
  match t.states.(id) with
  | None -> t.states.(id) <- Some s
  | Some _ -> raise (Redefined_exn id)

let defined t id = id < Array.length t.states && t.states.(id) <> None
let ended t id = id < Array.length t.ended && t.ended.(id)

(* A defined state only says its strand has started. A join also needs
   the joined strand to have ended — a sync waits for each spawned
   child's [Returned], a get for the future's [Put] — or it could apply
   ahead of that strand's last accesses on another worker stream. *)
let joined (ev : Log_format.event) =
  match ev with
  | Sync { spawned_lasts; _ } -> spawned_lasts
  | Get { put; _ } -> [ put ]
  | _ -> []

let ready t ev =
  List.for_all (defined t) (Log_format.inputs ev)
  && List.for_all (ended t) (joined ev)

(* Dispatch one event to the client callbacks, threading state IDs
   through [lookup]/[define]. *)
let apply_callbacks (cb : Events.callbacks) ~lookup ~define ev =
  match (ev : Log_format.event) with
  | Spawn { cur; child; cont } ->
      let c, t = cb.on_spawn (lookup cur) in
      define child c;
      define cont t
  | Create { cur; child; cont } ->
      let c, t = cb.on_create (lookup cur) in
      define child c;
      define cont t
  | Sync { cur; spawned_lasts; created_firsts; next } ->
      define next
        (cb.on_sync ~cur:(lookup cur)
           ~spawned_lasts:(List.map lookup spawned_lasts)
           ~created_firsts:(List.map lookup created_firsts))
  | Put { cur } -> cb.on_put (lookup cur)
  | Get { cur; put; next } ->
      define next (cb.on_get ~cur:(lookup cur) ~put:(lookup put))
  | Returned { cont; child_last } ->
      cb.on_returned ~cont:(lookup cont) ~child_last:(lookup child_last)
  | Read { cur; loc } -> cb.on_read (lookup cur) loc
  | Write { cur; loc } -> cb.on_write (lookup cur) loc
  | Work { cur; amount } -> cb.on_work (lookup cur) amount

(* -- sharded access checking ------------------------------------------- *)

(* Fibonacci multiplicative hash: spreads clustered location ranges (each
   workload allocates a contiguous block) evenly over the shards. *)
let shard_of ~loc ~shards =
  if shards = 1 then 0 else (loc * 0x9E3779B1 land max_int) mod shards

let check_shard_batch sh s (accesses : access array) =
  let history = sh.histories.(s) in
  let races = sh.races.(s) in
  let precedes = sh.precedes in
  let future_of = Sf_order.strand_future in
  Array.iter
    (fun { state; loc; is_write } ->
      if is_write then
        Access_history.on_write history ~loc ~accessor:state
          ~check:(fun ~prev ~prev_is_writer ->
            if not (precedes prev state) then
              Race.report races ~loc
                ~kind:
                  (if prev_is_writer then Race.Write_write else Race.Read_write)
                ~prev_future:(future_of prev) ~cur_future:(future_of state))
      else
        Access_history.on_read history ~loc ~accessor:state
          ~check_writer:(fun w ->
            if not (precedes w state) then
              Race.report races ~loc ~kind:Race.Write_read
                ~prev_future:(future_of w) ~cur_future:(future_of state)))
    accesses

(* Drain every pending per-shard batch, shard 0 on the calling domain
   and the rest on freshly spawned ones. Runs while the structural merge
   is paused, so the frozen-prefix reachability structures are
   read-only. *)
let flush_shards sh =
  if sh.n_pending > 0 then begin
    Metrics.incr m_shard_checks;
    let batches =
      Array.map
        (fun p ->
          let b = Array.of_list (List.rev !p) in
          p := [];
          b)
        sh.pending
    in
    sh.n_pending <- 0;
    let work = ref [] in
    for s = sh.n - 1 downto 1 do
      if Array.length batches.(s) > 0 then
        work := (s, Domain.spawn (fun () -> check_shard_batch sh s batches.(s))) :: !work
    done;
    if Array.length batches.(0) > 0 then check_shard_batch sh 0 batches.(0);
    List.iter (fun (_, d) -> Domain.join d) !work
  end

(* -- the merge loop ----------------------------------------------------- *)

let latch t status = if t.failed = None then t.failed <- Some status

let apply_event t ev =
  match (t.shards, (ev : Log_format.event)) with
  | Some sh, (Read { cur; loc } | Write { cur; loc }) ->
      let is_write = match ev with Write _ -> true | _ -> false in
      let s = shard_of ~loc ~shards:sh.n in
      sh.pending.(s) := { state = lookup t cur; loc; is_write } :: !(sh.pending.(s));
      sh.sizes.(s) <- sh.sizes.(s) + 1;
      sh.n_pending <- sh.n_pending + 1;
      t.accesses <- t.accesses + 1;
      if sh.n_pending >= access_batch then flush_shards sh
  | _ -> (
      apply_callbacks t.det.Detector.callbacks ~lookup:(lookup t)
        ~define:(fun id s -> define t id s)
        ev;
      match ev with
      | Read _ | Write _ -> t.accesses <- t.accesses + 1
      | Put { cur } | Returned { child_last = cur; _ } -> t.ended.(cur) <- true
      | _ -> ())

(* Sweep the streams, applying every ready head, until a full sweep makes
   no progress (then: wait for more input; whether that's a deadlock is
   only decidable at close). *)
let merge t =
  let progress = ref true in
  while !progress && t.failed = None do
    progress := false;
    Array.iteri
      (fun w st ->
        let continue_ = ref true in
        while !continue_ && t.failed = None && not (Queue.is_empty st.q) do
          let ev = Queue.peek st.q in
          if ready t ev then begin
            (match apply_event t ev with
            | () ->
                ignore (Queue.pop st.q);
                st.applied <- st.applied + 1;
                t.applied <- t.applied + 1;
                Metrics.incr m_events;
                progress := true
            | exception Redefined_exn id ->
                latch t
                  (Inconsistent (Redefined { worker = w; index = st.applied; id }))
            | exception Detect_error.Error e ->
                latch t (Detector_failed (Detect_error.to_string e))
            | exception exn ->
                latch t (Detector_failed (Printexc.to_string exn)))
          end
          else continue_ := false
        done)
      t.streams
  done

(* Queue a decoded event on its worker stream. A serial-only detector
   refuses a second worker stream before applying any of its events. *)
let enqueue t (w, ev) =
  if t.failed = None then begin
    if w <> t.first_worker then
      if t.first_worker < 0 then t.first_worker <- w
      else if not t.det.Detector.supports_parallel then
        latch t
          (Detector_failed
             (Printf.sprintf
                "%s requires a depth-first event order, but the log has more \
                 than one worker stream (record with the serial executor)"
                t.det.Detector.name));
    if t.failed = None then begin
      ensure_stream t w;
      Queue.push ev t.streams.(w).q
    end
  end

let step t =
  if t.failed = None && t.final = None then begin
    Metrics.incr m_steps;
    let pt = Sfr_obs.Prof.start () in
    (match Stream_reader.drain t.reader with
    | Ok evs -> List.iter (enqueue t) evs
    | Error e -> latch t (Torn e));
    if t.failed = None then begin
      (* root state exists before any event *)
      if t.states.(0) = None then t.states.(0) <- Some t.det.Detector.root;
      merge t
    end;
    Sfr_obs.Prof.stop t_step pt
  end

(* The first blocked stream head and the state it waits on. *)
let find_blocked t =
  let blocked = ref None in
  Array.iteri
    (fun w st ->
      if !blocked = None && not (Queue.is_empty st.q) then
        let ev = Queue.peek st.q in
        let missing =
          match List.find_opt (fun id -> not (defined t id)) (Log_format.inputs ev) with
          | Some _ as m -> m
          | None -> List.find_opt (fun id -> not (ended t id)) (joined ev)
        in
        Option.iter (fun m -> blocked := Some (w, st.applied, m)) missing)
    t.streams;
  !blocked

let undrained t =
  Array.exists (fun st -> not (Queue.is_empty st.q)) t.streams

let make_verdict t status =
  let reports, shard_sizes =
    match t.shards with
    | None -> (Race.reports t.det.Detector.races, [||])
    | Some sh ->
        flush_shards sh;
        (* shards partition locations, so sorting the concatenated
           per-shard reports by location is a disjoint merge *)
        ( Array.to_list sh.races
          |> List.concat_map Race.reports
          |> List.sort (fun (a : Race.report) b -> compare a.Race.loc b.Race.loc),
          Array.copy sh.sizes )
  in
  {
    status;
    reports;
    racy_locations = List.map (fun (r : Race.report) -> r.Race.loc) reports;
    events_applied = t.applied;
    accesses = t.accesses;
    shard_sizes;
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

let run_file mode path =
  let t = create mode in
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
