module Chaos = Sfr_chaos.Chaos

type client = {
  server : Server.t;
  conn : Server.conn;
  rmu : Mutex.t;  (** guards the reply side: pool workers write it *)
  rcond : Condition.t;  (** broadcast by [on_reply] after each delivery *)
  rdec : Frame.decoder;
  mutable rframes_rev : Frame.frame list;
  mutable rcredit : int;  (** granted-but-unspent send credit *)
  mutable is_torn : bool;
  mutable is_disconnected : bool;
}

let on_reply c bytes =
  Mutex.lock c.rmu;
  Frame.decoder_feed c.rdec bytes ~pos:0 ~len:(Bytes.length bytes);
  let continue_ = ref true in
  while !continue_ do
    match Frame.decoder_next c.rdec with
    | Ok (Some f) ->
        c.rframes_rev <- f :: c.rframes_rev;
        (match f with
        | Frame.Welcome { credit; _ } -> c.rcredit <- c.rcredit + credit
        | Frame.Credit n -> c.rcredit <- c.rcredit + n
        | _ -> ())
    | Ok None | Error _ -> continue_ := false
  done;
  Condition.broadcast c.rcond;
  Mutex.unlock c.rmu

let connect server =
  let rec c =
    lazy
      {
        server;
        conn = Server.connect server ~send:(fun b -> on_reply (Lazy.force c) b);
        rmu = Mutex.create ();
        rcond = Condition.create ();
        rdec = Frame.decoder ();
        rframes_rev = [];
        rcredit = 0;
        is_torn = false;
        is_disconnected = false;
      }
  in
  Lazy.force c

let replies c =
  Mutex.lock c.rmu;
  let fs = List.rev c.rframes_rev in
  Mutex.unlock c.rmu;
  fs

let is_terminal = function Frame.Verdict _ | Frame.Reject _ -> true | _ -> false
let last_terminal c = List.find_opt is_terminal (replies c)

let credit c =
  Mutex.lock c.rmu;
  let n = c.rcredit in
  Mutex.unlock c.rmu;
  n

let torn c = c.is_torn
let session_id c = Server.session_id c.conn

let raw_send c bytes =
  if not (c.is_torn || c.is_disconnected) then
    Server.on_bytes c.server c.conn bytes ~pos:0 ~len:(Bytes.length bytes)

let disconnect c =
  if not c.is_disconnected then begin
    c.is_disconnected <- true;
    Server.on_disconnect c.server c.conn
  end

let deliver c bytes ~len =
  Server.on_bytes c.server c.conn bytes ~pos:0 ~len

let send_frame ?(chaos = true) c frame =
  if not (c.is_torn || c.is_disconnected) then begin
    let image = Frame.to_bytes frame in
    let n = Bytes.length image in
    let fault =
      if chaos then Chaos.wire_fault ~frame_len:n else Chaos.Wire_pass
    in
    match fault with
    | Chaos.Wire_pass -> deliver c image ~len:n
    | Chaos.Wire_truncate k ->
        (* the peer saw a prefix and then the pipe broke *)
        deliver c image ~len:(min k n);
        c.is_torn <- true
    | Chaos.Wire_duplicate ->
        deliver c image ~len:n;
        deliver c image ~len:n
    | Chaos.Wire_corrupt off ->
        let image = Bytes.copy image in
        Bytes.set image off
          (Char.chr (Char.code (Bytes.get image off) lxor 0x40));
        deliver c image ~len:n
    | Chaos.Wire_disconnect ->
        c.is_torn <- true;
        disconnect c
  end

let hello ?chaos c =
  send_frame ?chaos c (Frame.Hello { version = Frame.protocol_version })

let close ?chaos c = send_frame ?chaos c Frame.Close

let pump ?chaos ?(ignore_credit = false) ?(frame = 4096) c bytes ~pos ~len =
  if frame < 1 then invalid_arg "Loopback.pump: frame must be >= 1";
  let sent = ref 0 in
  let continue_ = ref true in
  while !continue_ && !sent < len && not (c.is_torn || c.is_disconnected) do
    let budget = if ignore_credit then len - !sent else credit c in
    let n = min frame (min (len - !sent) budget) in
    if n <= 0 then continue_ := false
    else begin
      if not ignore_credit then begin
        Mutex.lock c.rmu;
        c.rcredit <- c.rcredit - n;
        Mutex.unlock c.rmu
      end;
      send_frame ?chaos c (Frame.Data (Bytes.sub bytes (pos + !sent) n));
      sent := !sent + n
    end
  done;
  !sent

(* Out of credit: block until a reply grants some or ends the session.
   An inline server sent every reply it owed before [on_bytes] returned,
   so with it nothing more can come and the stream is stuck (a
   chaos-mangled frame length leaves the server waiting for bytes the
   client has no credit to send). [true] iff there is credit to spend. *)
let await_credit c =
  let inline = Server.inline c.server in
  Mutex.lock c.rmu;
  let ended () =
    c.is_torn || c.is_disconnected
    || List.exists is_terminal c.rframes_rev
  in
  while c.rcredit = 0 && (not (ended ())) && not inline do
    Condition.wait c.rcond c.rmu
  done;
  let go = c.rcredit > 0 && not (ended ()) in
  Mutex.unlock c.rmu;
  go

let run_log ?chaos ?frame c image =
  hello ?chaos c;
  let len = Bytes.length image in
  let sent = ref 0 in
  let stuck = ref false in
  while
    !sent < len
    && (not (c.is_torn || c.is_disconnected || !stuck))
    && last_terminal c = None
  do
    let n = pump ?chaos ?frame c image ~pos:!sent ~len:(len - !sent) in
    if n = 0 then stuck := not (await_credit c) else sent := !sent + n
  done;
  (* never CLOSE a partial stream: that would claim a clean end *)
  if !sent = len && (not (c.is_torn || c.is_disconnected)) && last_terminal c = None
  then close ?chaos c
