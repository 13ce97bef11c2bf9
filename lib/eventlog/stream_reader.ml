open Log_format

type summary = { s_events : int; s_states : int; s_workers : int }

(* [In_chunk] means [lo] points at the next undecoded payload byte of a
   chunk with [remaining] payload bytes still expected (possibly not all
   fed yet). [At_chunk] means [lo] points at a chunk tag (or the footer
   tag). *)
type chunk = { worker : int; mutable remaining : int }

type phase =
  | Header
  | At_chunk
  | In_chunk of chunk
  | Done of summary
  | Failed of Log_format.error

(* Decoded rows, one column per field; see the .mli for the layout.
   Reset at the start of every [drain]. *)
type batch = {
  mutable rows : int;
  mutable op : int array;
  mutable worker : int array;
  mutable arg0 : int array;
  mutable arg1 : int array;
  mutable arg2 : int array;
  mutable side : int array;
  mutable side_len : int;
}

type t = {
  max_workers : int;
  mutable data : Bytes.t;
  mutable lo : int;  (** first unconsumed byte in [data] *)
  mutable hi : int;  (** end of fed bytes in [data] *)
  mutable abs_lo : int;  (** absolute stream offset of [data.(lo)] *)
  mutable phase : phase;
  mutable crc : int;  (** accumulated over consumed payload bytes *)
  mutable last_locs : int array;  (** per-worker delta base *)
  mutable n_workers_seen : int;
  mutable max_sid : int;  (** largest state ID referenced or defined *)
  mutable events : int;
  mutable p : int;  (** decode cursor in [data], inside a chunk run *)
  batch : batch;
  drained : (batch, Log_format.error) result;  (** [Ok batch], built once *)
}

let create ?(max_workers = 1024) () =
  let batch =
    {
      rows = 0;
      op = [||];
      worker = [||];
      arg0 = [||];
      arg1 = [||];
      arg2 = [||];
      side = [||];
      side_len = 0;
    }
  in
  {
    max_workers;
    data = Bytes.create 4096;
    lo = 0;
    hi = 0;
    abs_lo = 0;
    phase = Header;
    crc = crc32_init;
    last_locs = Array.make 4 0;
    n_workers_seen = 0;
    max_sid = 0;
    events = 0;
    p = 0;
    batch;
    drained = Ok batch;
  }

let consumed t = t.abs_lo
let buffered t = t.hi - t.lo
let events_decoded t = t.events
let finished t = match t.phase with Done s -> Some s | _ -> None

let fail t e =
  t.phase <- Failed e;
  (* drop the buffer: nothing further will be decoded *)
  t.lo <- 0;
  t.hi <- 0;
  Error e

(* Errors from [Log_format] readers carry buffer-relative offsets; remap
   them to absolute stream offsets before surfacing. *)
let remap t = function
  | Truncated { offset; while_ } ->
      Truncated { offset = offset - t.lo + t.abs_lo; while_ }
  | Bad_varint { offset } -> Bad_varint { offset = offset - t.lo + t.abs_lo }
  | Bad_opcode { offset; opcode } ->
      Bad_opcode { offset = offset - t.lo + t.abs_lo; opcode }
  | State_out_of_range { offset; id; bound } ->
      State_out_of_range { offset = offset - t.lo + t.abs_lo; id; bound }
  | Corrupt { offset; what } ->
      Corrupt { offset = offset - t.lo + t.abs_lo; what }
  | (Bad_magic _ | Bad_version _ | Bad_crc _) as e -> e

let feed t bytes ~pos ~len =
  if len < 0 || pos < 0 || pos + len > Bytes.length bytes then
    invalid_arg "Stream_reader.feed: bad slice";
  match t.phase with
  | Failed _ -> ()
  | _ ->
      let cap = Bytes.length t.data in
      if t.hi + len > cap then begin
        let live = t.hi - t.lo in
        if live + len <= cap / 2 then begin
          (* compact in place: plenty of room once the consumed prefix
             goes *)
          Bytes.blit t.data t.lo t.data 0 live;
          t.lo <- 0;
          t.hi <- live
        end
        else begin
          let cap' = max (cap * 2) (live + len) in
          let data' = Bytes.create cap' in
          Bytes.blit t.data t.lo data' 0 live;
          t.data <- data';
          t.lo <- 0;
          t.hi <- live
        end
      end;
      Bytes.blit bytes pos t.data t.hi len;
      t.hi <- t.hi + len

(* Consume [n] bytes at [lo] (already decoded). *)
let advance t n =
  t.lo <- t.lo + n;
  t.abs_lo <- t.abs_lo + n

(* -- event records ---------------------------------------------------- *)

(* Raised inside a chunk run: [Short] when the run's bytes end before
   the event does (more bytes, or a torn chunk, decide which error it
   is); [Bad] with a buffer-relative offset for everything else. Both
   leave the event's row uncommitted. *)
exception Short
exception Bad of Log_format.error

let grow a n = Array.append a (Array.make (max 64 n) 0)

let grow_rows b =
  let n = Array.length b.op in
  b.op <- grow b.op n;
  b.worker <- grow b.worker n;
  b.arg0 <- grow b.arg0 n;
  b.arg1 <- grow b.arg1 n;
  b.arg2 <- grow b.arg2 n

let push_side b v =
  if b.side_len = Array.length b.side then b.side <- grow b.side b.side_len;
  Array.unsafe_set b.side b.side_len v;
  b.side_len <- b.side_len + 1

(* The varint at [t.p], read up to [limit]; [t.p] moves past it. The
   checks are [Log_format.read_varint]'s: a 10th group, or bits shifted
   out of a 63-bit int, overflow. *)
let varint t limit =
  let start = t.p in
  if start >= limit then raise_notrace Short;
  let b0 = Char.code (Bytes.unsafe_get t.data start) in
  if b0 < 0x80 then begin
    t.p <- start + 1;
    b0
  end
  else begin
    let p = ref (start + 1) and shift = ref 7 and acc = ref (b0 land 0x7F) in
    let more = ref true in
    while !more do
      if !p >= limit then raise_notrace Short;
      let b = Char.code (Bytes.unsafe_get t.data !p) in
      let payload = b land 0x7F in
      if !shift > Sys.int_size - 1 || (payload lsl !shift) asr !shift <> payload
      then raise_notrace (Bad (Bad_varint { offset = start }));
      acc := !acc lor (payload lsl !shift);
      incr p;
      shift := !shift + 7;
      more := b land 0x80 <> 0
    done;
    t.p <- !p;
    !acc
  end

(* A state ID. Its footer bound is not known yet, so it is checked
   against the loosest one, and the largest ID seen is kept for the
   footer to validate. *)
let sid t limit =
  let start = t.p in
  let v = varint t limit in
  if v >= max_int then
    raise_notrace (Bad (State_out_of_range { offset = start; id = v; bound = max_int }));
  if v > t.max_sid then t.max_sid <- v;
  v

(* Decode the event record at [t.p] (below [limit]) of worker [w]'s
   stream into row [b.rows], and commit the row. *)
let decode_event t limit w =
  let b = t.batch in
  if b.rows = Array.length b.op then grow_rows b;
  let row = b.rows in
  let start = t.p in
  let op = Char.code (Bytes.unsafe_get t.data start) in
  t.p <- start + 1;
  if op = op_read || op = op_write then begin
    Array.unsafe_set b.arg0 row (sid t limit);
    let dpos = t.p in
    let loc = t.last_locs.(w) + unzigzag (varint t limit) in
    if loc < 0 then
      raise_notrace (Bad (Corrupt { offset = dpos; what = "negative access location" }));
    t.last_locs.(w) <- loc;
    Array.unsafe_set b.arg1 row loc
  end
  else if op = op_spawn || op = op_create || op = op_get then begin
    Array.unsafe_set b.arg0 row (sid t limit);
    Array.unsafe_set b.arg1 row (sid t limit);
    Array.unsafe_set b.arg2 row (sid t limit)
  end
  else if op = op_sync then begin
    let mark = b.side_len in
    match
      Array.unsafe_set b.arg0 row (sid t limit);
      Array.unsafe_set b.arg1 row mark;
      for _ = 1 to 2 do
        let n = varint t limit in
        push_side b n;
        for _ = 1 to n do
          push_side b (sid t limit)
        done
      done;
      Array.unsafe_set b.arg2 row (sid t limit)
    with
    | () -> ()
    | exception e ->
        b.side_len <- mark;
        raise_notrace e
  end
  else if op = op_put then Array.unsafe_set b.arg0 row (sid t limit)
  else if op = op_returned then begin
    Array.unsafe_set b.arg0 row (sid t limit);
    Array.unsafe_set b.arg1 row (sid t limit)
  end
  else if op = op_work then begin
    Array.unsafe_set b.arg0 row (sid t limit);
    Array.unsafe_set b.arg1 row (varint t limit)
  end
  else raise_notrace (Bad (Bad_opcode { offset = start; opcode = op }));
  Array.unsafe_set b.op row op;
  Array.unsafe_set b.worker row w;
  b.rows <- row + 1;
  t.events <- t.events + 1

(* Decode every whole event among the fed bytes of chunk [ic], then
   fold the decoded bytes into the CRC at once. [`Wait]: the fed bytes
   end mid-event or mid-chunk; [`Chunk_end]: the chunk is fully
   decoded. *)
let decode_run t ic =
  let available = t.hi - t.lo in
  let limit = t.lo + min ic.remaining available in
  t.p <- t.lo;
  let decoded = ref t.lo in
  let outcome =
    try
      while t.p < limit do
        decode_event t limit ic.worker;
        decoded := t.p
      done;
      Ok ()
    with
    | Short -> Error None
    | Bad e -> Error (Some e)
  in
  let n = !decoded - t.lo in
  t.crc <- crc32_update t.crc t.data ~pos:t.lo ~len:n;
  ic.remaining <- ic.remaining - n;
  advance t n;
  match outcome with
  | Ok () -> Ok (if ic.remaining = 0 then `Chunk_end else `Wait)
  | Error None when available < ic.remaining + n -> Ok `Wait
  | Error None ->
      (* the event ran past the chunk's declared payload end *)
      Error
        (Corrupt
           {
             offset = limit - t.lo + t.abs_lo;
             what = "event record spans a chunk boundary";
           })
  | Error (Some e) -> Error (remap t e)

let ensure_worker t w =
  if w >= Array.length t.last_locs then begin
    let a = Array.make (max (w + 1) (2 * Array.length t.last_locs)) 0 in
    Array.blit t.last_locs 0 a 0 (Array.length t.last_locs);
    t.last_locs <- a
  end;
  if w >= t.n_workers_seen then t.n_workers_seen <- w + 1

let drain t =
  let rec loop () =
    match t.phase with
    | Failed e -> Error e
    | Done _ ->
        if t.hi > t.lo then
          fail t
            (Corrupt { offset = t.abs_lo; what = "trailing bytes after footer" })
        else Ok ()
    | Header ->
        let need = String.length magic + 1 in
        if t.hi - t.lo < need then Ok ()
        else if Bytes.sub_string t.data t.lo (String.length magic) <> magic
        then
          fail t
            (Bad_magic
               { got = Bytes.sub_string t.data t.lo (String.length magic) })
        else
          let v = Char.code (Bytes.get t.data (t.lo + String.length magic)) in
          if v <> version then fail t (Bad_version { got = v })
          else begin
            advance t need;
            t.phase <- At_chunk;
            loop ()
          end
    | At_chunk ->
        if t.hi = t.lo then Ok ()
        else begin
          let tag = Char.code (Bytes.get t.data t.lo) in
          if tag = 1 then
            match read_varint t.data ~pos:(t.lo + 1) ~limit:t.hi with
            | Error (Truncated _) -> Ok () (* chunk header split: wait *)
            | Error e -> fail t (remap t e)
            | Ok (worker, p) -> (
                match read_varint t.data ~pos:p ~limit:t.hi with
                | Error (Truncated _) -> Ok ()
                | Error e -> fail t (remap t e)
                | Ok (plen, p) ->
                    if worker >= t.max_workers then
                      fail t
                        (Corrupt
                           {
                             offset = t.abs_lo + 1;
                             what =
                               Printf.sprintf
                                 "implausible worker id %d (limit %d)" worker
                                 t.max_workers;
                           })
                    else begin
                      ensure_worker t worker;
                      advance t (p - t.lo);
                      t.phase <- In_chunk { worker; remaining = plen };
                      loop ()
                    end)
          else if tag = 0 then
            match read_varint t.data ~pos:(t.lo + 1) ~limit:t.hi with
            | Error (Truncated _) -> Ok ()
            | Error e -> fail t (remap t e)
            | Ok (n_events, p) -> (
                match read_varint t.data ~pos:p ~limit:t.hi with
                | Error (Truncated _) -> Ok ()
                | Error e -> fail t (remap t e)
                | Ok (n_states, p) -> (
                    match read_varint t.data ~pos:p ~limit:t.hi with
                    | Error (Truncated _) -> Ok ()
                    | Error e -> fail t (remap t e)
                    | Ok (n_workers, p) ->
                        if p + 4 > t.hi then Ok ()
                        else
                          let expected =
                            Char.code (Bytes.get t.data p)
                            lor (Char.code (Bytes.get t.data (p + 1)) lsl 8)
                            lor (Char.code (Bytes.get t.data (p + 2)) lsl 16)
                            lor (Char.code (Bytes.get t.data (p + 3)) lsl 24)
                          in
                          let footer_off = t.abs_lo in
                          advance t (p + 4 - t.lo);
                          if expected <> t.crc then
                            fail t (Bad_crc { expected; got = t.crc })
                          else if n_states < 1 then
                            fail t
                              (Corrupt
                                 {
                                   offset = footer_off;
                                   what = "footer declares no states";
                                 })
                          else if n_events <> t.events then
                            fail t
                              (Corrupt
                                 {
                                   offset = footer_off;
                                   what =
                                     Printf.sprintf
                                       "footer declares %d events, stream \
                                        decoded %d"
                                       n_events t.events;
                                 })
                          else if t.n_workers_seen > n_workers then
                            fail t
                              (Corrupt
                                 {
                                   offset = footer_off;
                                   what =
                                     Printf.sprintf
                                       "chunks name %d worker stream(s) but \
                                        footer declares %d"
                                       t.n_workers_seen n_workers;
                                 })
                          else if t.max_sid >= n_states then
                            fail t
                              (State_out_of_range
                                 {
                                   offset = footer_off;
                                   id = t.max_sid;
                                   bound = n_states;
                                 })
                          else begin
                            t.phase <-
                              Done
                                {
                                  s_events = n_events;
                                  s_states = n_states;
                                  s_workers = n_workers;
                                };
                            loop ()
                          end))
          else fail t (Bad_opcode { offset = t.abs_lo; opcode = tag })
        end
    | In_chunk ic ->
        if ic.remaining = 0 then begin
          t.phase <- At_chunk;
          loop ()
        end
        else if t.hi = t.lo then Ok ()
        else begin
          match decode_run t ic with
          | Ok `Chunk_end ->
              t.phase <- At_chunk;
              loop ()
          | Ok `Wait -> Ok ()
          | Error e -> fail t e
        end
  in
  t.batch.rows <- 0;
  t.batch.side_len <- 0;
  match loop () with Ok () -> t.drained | Error e -> Error e

let event b i =
  if i < 0 || i >= b.rows then invalid_arg "Stream_reader.event: no such row";
  let op = b.op.(i) and a0 = b.arg0.(i) and a1 = b.arg1.(i) and a2 = b.arg2.(i) in
  if op = op_spawn then Spawn { cur = a0; child = a1; cont = a2 }
  else if op = op_create then Create { cur = a0; child = a1; cont = a2 }
  else if op = op_sync then
    let ids o = List.init b.side.(o) (fun k -> b.side.(o + 1 + k)) in
    let spawned_lasts = ids a1 in
    let created_firsts = ids (a1 + 1 + List.length spawned_lasts) in
    Sync { cur = a0; spawned_lasts; created_firsts; next = a2 }
  else if op = op_put then Put { cur = a0 }
  else if op = op_get then Get { cur = a0; put = a1; next = a2 }
  else if op = op_returned then Returned { cont = a0; child_last = a1 }
  else if op = op_read then Read { cur = a0; loc = a1 }
  else if op = op_write then Write { cur = a0; loc = a1 }
  else Work { cur = a0; amount = a1 }

let finish t =
  match drain t with
  | Error e -> Error e
  | Ok _late_events -> (
      (* events surfacing only at finish are lost to the caller, but a
         caller that stopped draining has already abandoned the stream *)
      match t.phase with
      | Done s when t.hi = t.lo -> Ok s
      | Done _ ->
          (* unreachable: drain latches trailing bytes as Corrupt *)
          Error
            (Corrupt { offset = t.abs_lo; what = "trailing bytes after footer" })
      | Failed e -> Error e
      | Header ->
          fail t (Truncated { offset = t.abs_lo + buffered t; while_ = "reading header" })
      | At_chunk ->
          fail t
            (Truncated
               {
                 offset = t.abs_lo + buffered t;
                 while_ = "expecting chunk or footer";
               })
      | In_chunk _ ->
          fail t
            (Truncated
               {
                 offset = t.abs_lo + buffered t;
                 while_ = "stream closed mid-chunk";
               }))
