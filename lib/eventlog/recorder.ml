module Events = Sfr_runtime.Events
module Metrics = Sfr_obs.Metrics
module Chaos = Sfr_chaos.Chaos

let m_events = Metrics.counter "eventlog.events"
let m_bytes = Metrics.counter "eventlog.bytes_written"
let m_flushes = Metrics.counter "eventlog.flushes"

type Events.state += Rec of int

let id_of = function
  | Rec i -> i
  | _ -> invalid_arg "Eventlog.Recorder: foreign state"

(* Per-worker (per-domain) append buffer. Only its owning domain touches
   [buf]/[last_loc]/[events] while the run is live; [close] reads them
   after every domain has joined. *)
type wbuf = {
  worker : int;
  buf : Buffer.t;
  mutable last_loc : int;
  mutable events : int;
}

type stats = {
  events : int;
  bytes : int;
  flushes : int;
  workers : int;
  states : int;
}

type t = {
  oc : out_channel;
  buf_cap : int;
  file_mu : Mutex.t;
  mutable crc : int;  (** guarded by [file_mu] *)
  mutable payload_bytes : int;
  mutable flushes : int;
  next_state : int Atomic.t;
  next_worker : int Atomic.t;
  bufs_mu : Mutex.t;
  mutable bufs : wbuf list;
  dls : wbuf option Domain.DLS.key;
  mutable closed : stats option;
}

let wbuf t =
  match Domain.DLS.get t.dls with
  | Some w -> w
  | None ->
      let w =
        {
          worker = Atomic.fetch_and_add t.next_worker 1;
          buf = Buffer.create t.buf_cap;
          last_loc = 0;
          events = 0;
        }
      in
      Mutex.lock t.bufs_mu;
      t.bufs <- w :: t.bufs;
      Mutex.unlock t.bufs_mu;
      Domain.DLS.set t.dls (Some w);
      w

let flush_buf t w =
  if Buffer.length w.buf > 0 then begin
    Chaos.point Chaos.Log_flush;
    let payload = Buffer.to_bytes w.buf in
    Buffer.clear w.buf;
    let len = Bytes.length payload in
    let hdr = Buffer.create 16 in
    Buffer.add_char hdr '\001';
    Log_format.write_varint hdr w.worker;
    Log_format.write_varint hdr len;
    Mutex.lock t.file_mu;
    Buffer.output_buffer t.oc hdr;
    output_bytes t.oc payload;
    t.crc <- Log_format.crc32_update t.crc payload ~pos:0 ~len;
    t.payload_bytes <- t.payload_bytes + len;
    t.flushes <- t.flushes + 1;
    Mutex.unlock t.file_mu;
    Metrics.add m_bytes len;
    Metrics.incr m_flushes
  end

(* Each callback encodes its record straight into the worker's buffer,
   as [Log_format.write_event] would, without building the event. State
   IDs are resolved before anything is written, so a foreign state
   leaves the buffer untouched. *)

let begin_record t op =
  let w = wbuf t in
  w.events <- w.events + 1;
  Buffer.add_char w.buf (Char.unsafe_chr op);
  w

let end_record t w = if Buffer.length w.buf >= t.buf_cap then flush_buf t w

let access t op cur loc =
  let cur = id_of cur in
  let w = begin_record t op in
  Log_format.write_varint w.buf cur;
  Log_format.write_zigzag w.buf (loc - w.last_loc);
  w.last_loc <- loc;
  end_record t w

let record1 t op a =
  let w = begin_record t op in
  Log_format.write_varint w.buf a;
  end_record t w

(* [Work]'s second operand is its amount; every other one is a state ID. *)
let record2 t op a b =
  let w = begin_record t op in
  Log_format.write_varint w.buf a;
  Log_format.write_varint w.buf b;
  end_record t w

let record3 t op a b c =
  let w = begin_record t op in
  Log_format.write_varint w.buf a;
  Log_format.write_varint w.buf b;
  Log_format.write_varint w.buf c;
  end_record t w

let rec check_ids = function
  | [] -> ()
  | s :: rest ->
      ignore (id_of s);
      check_ids rest

let rec write_ids buf = function
  | [] -> ()
  | s :: rest ->
      Log_format.write_varint buf (id_of s);
      write_ids buf rest

let create ?(buf_size = 64 * 1024) ~path () =
  let oc = open_out_bin path in
  output_string oc Log_format.magic;
  output_char oc (Char.chr Log_format.version);
  let t =
    {
      oc;
      buf_cap = max 64 buf_size;
      file_mu = Mutex.create ();
      crc = Log_format.crc32_init;
      payload_bytes = 0;
      flushes = 0;
      next_state = Atomic.make 1;
      next_worker = Atomic.make 0;
      bufs_mu = Mutex.create ();
      bufs = [];
      dls = Domain.DLS.new_key (fun () -> None);
      closed = None;
    }
  in
  let callbacks =
    {
      Events.on_spawn =
        (fun cur ->
          let child = Atomic.fetch_and_add t.next_state 2 in
          let cur = id_of cur in
          Chaos.point Chaos.Record;
          record3 t Log_format.op_spawn cur child (child + 1);
          (Rec child, Rec (child + 1)));
      on_create =
        (fun cur ->
          let child = Atomic.fetch_and_add t.next_state 2 in
          let cur = id_of cur in
          Chaos.point Chaos.Record;
          record3 t Log_format.op_create cur child (child + 1);
          (Rec child, Rec (child + 1)));
      on_sync =
        (fun ~cur ~spawned_lasts ~created_firsts ->
          let next = Atomic.fetch_and_add t.next_state 1 in
          let cur = id_of cur in
          check_ids spawned_lasts;
          check_ids created_firsts;
          Chaos.point Chaos.Record;
          let w = begin_record t Log_format.op_sync in
          Log_format.write_varint w.buf cur;
          Log_format.write_varint w.buf (List.length spawned_lasts);
          write_ids w.buf spawned_lasts;
          Log_format.write_varint w.buf (List.length created_firsts);
          write_ids w.buf created_firsts;
          Log_format.write_varint w.buf next;
          end_record t w;
          Rec next);
      on_put =
        (fun cur ->
          let cur = id_of cur in
          Chaos.point Chaos.Record;
          record1 t Log_format.op_put cur);
      on_get =
        (fun ~cur ~put ->
          let next = Atomic.fetch_and_add t.next_state 1 in
          let cur = id_of cur and put = id_of put in
          Chaos.point Chaos.Record;
          record3 t Log_format.op_get cur put next;
          Rec next);
      on_returned =
        (fun ~cont ~child_last ->
          let cont = id_of cont and child_last = id_of child_last in
          Chaos.point Chaos.Record;
          record2 t Log_format.op_returned cont child_last);
      on_read = (fun cur loc -> access t Log_format.op_read cur loc);
      on_write = (fun cur loc -> access t Log_format.op_write cur loc);
      on_work = (fun cur amount -> record2 t Log_format.op_work (id_of cur) amount);
    }
  in
  (t, callbacks, Rec 0)

let close t =
  match t.closed with
  | Some stats -> stats
  | None ->
      Mutex.lock t.bufs_mu;
      let bufs = t.bufs in
      Mutex.unlock t.bufs_mu;
      List.iter (fun w -> flush_buf t w) bufs;
      let events =
        List.fold_left (fun acc (w : wbuf) -> acc + w.events) 0 bufs
      in
      let states = Atomic.get t.next_state in
      let footer = Buffer.create 32 in
      Buffer.add_char footer '\000';
      Log_format.write_varint footer events;
      Log_format.write_varint footer states;
      Log_format.write_varint footer (Atomic.get t.next_worker);
      for i = 0 to 3 do
        Buffer.add_char footer (Char.chr ((t.crc lsr (8 * i)) land 0xFF))
      done;
      Buffer.output_buffer t.oc footer;
      close_out t.oc;
      Metrics.add m_events events;
      let stats =
        {
          events;
          bytes = t.payload_bytes;
          flushes = t.flushes;
          workers = Atomic.get t.next_worker;
          states;
        }
      in
      t.closed <- Some stats;
      stats
