let magic = "SFLG"
let version = 1

type event =
  | Spawn of { cur : int; child : int; cont : int }
  | Create of { cur : int; child : int; cont : int }
  | Sync of {
      cur : int;
      spawned_lasts : int list;
      created_firsts : int list;
      next : int;
    }
  | Put of { cur : int }
  | Get of { cur : int; put : int; next : int }
  | Returned of { cont : int; child_last : int }
  | Read of { cur : int; loc : int }
  | Write of { cur : int; loc : int }
  | Work of { cur : int; amount : int }

type error =
  | Bad_magic of { got : string }
  | Bad_version of { got : int }
  | Truncated of { offset : int; while_ : string }
  | Bad_varint of { offset : int }
  | Bad_opcode of { offset : int; opcode : int }
  | Bad_crc of { expected : int; got : int }
  | State_out_of_range of { offset : int; id : int; bound : int }
  | Corrupt of { offset : int; what : string }

let error_to_string = function
  | Bad_magic { got } ->
      Printf.sprintf "not an sflog file (magic %S, expected %S)" got magic
  | Bad_version { got } ->
      Printf.sprintf "unsupported sflog version %d (this reader speaks %d)" got
        version
  | Truncated { offset; while_ } ->
      Printf.sprintf "truncated log: unexpected end of file at byte %d (%s)"
        offset while_
  | Bad_varint { offset } ->
      Printf.sprintf "malformed varint at byte %d (overflows a 63-bit int)"
        offset
  | Bad_opcode { offset; opcode } ->
      Printf.sprintf "unknown opcode 0x%02x at byte %d" opcode offset
  | Bad_crc { expected; got } ->
      Printf.sprintf "checksum mismatch: footer says 0x%08x, payload is 0x%08x"
        expected got
  | State_out_of_range { offset; id; bound } ->
      Printf.sprintf
        "state/future id %d at byte %d out of range (footer declares %d states)"
        id offset bound
  | Corrupt { offset; what } ->
      Printf.sprintf "corrupt log at byte %d: %s" offset what

(* -- varints ----------------------------------------------------------- *)

let write_varint buf n =
  if n < 0 then invalid_arg "Log_format.write_varint: negative";
  let n = ref n in
  while !n >= 0x80 do
    Buffer.add_char buf (Char.unsafe_chr (0x80 lor (!n land 0x7F)));
    n := !n lsr 7
  done;
  Buffer.add_char buf (Char.unsafe_chr !n)

let zigzag n = (n lsl 1) lxor (n asr (Sys.int_size - 1))
let unzigzag z = (z lsr 1) lxor (-(z land 1))
let write_zigzag buf n = write_varint buf (zigzag n)

let read_varint bytes ~pos ~limit =
  let rec go p shift acc =
    if p >= limit then Error (Truncated { offset = p; while_ = "reading varint" })
    else
      let b = Char.code (Bytes.get bytes p) in
      let payload = b land 0x7F in
      (* 9 full groups of 7 bits = 63 bits fill an OCaml int; a 10th group
         (shift 63) or high bits that would shift out overflow it. *)
      if shift > Sys.int_size - 1
         || (shift > 0 && payload lsl shift asr shift <> payload)
      then Error (Bad_varint { offset = pos })
      else
        let acc = acc lor (payload lsl shift) in
        if b land 0x80 = 0 then Ok (acc, p + 1) else go (p + 1) (shift + 7) acc
  in
  go pos 0 0

(* -- events ------------------------------------------------------------ *)

let op_spawn = 1
let op_create = 2
let op_sync = 3
let op_put = 4
let op_get = 5
let op_returned = 6
let op_read = 7
let op_write = 8
let op_work = 9

let write_event buf ~last_loc ev =
  let op n = Buffer.add_char buf (Char.chr n) in
  let v n = write_varint buf n in
  match ev with
  | Spawn { cur; child; cont } ->
      op op_spawn;
      v cur;
      v child;
      v cont;
      last_loc
  | Create { cur; child; cont } ->
      op op_create;
      v cur;
      v child;
      v cont;
      last_loc
  | Sync { cur; spawned_lasts; created_firsts; next } ->
      op op_sync;
      v cur;
      v (List.length spawned_lasts);
      List.iter v spawned_lasts;
      v (List.length created_firsts);
      List.iter v created_firsts;
      v next;
      last_loc
  | Put { cur } ->
      op op_put;
      v cur;
      last_loc
  | Get { cur; put; next } ->
      op op_get;
      v cur;
      v put;
      v next;
      last_loc
  | Returned { cont; child_last } ->
      op op_returned;
      v cont;
      v child_last;
      last_loc
  | Read { cur; loc } ->
      op op_read;
      v cur;
      write_zigzag buf (loc - last_loc);
      loc
  | Write { cur; loc } ->
      op op_write;
      v cur;
      write_zigzag buf (loc - last_loc);
      loc
  | Work { cur; amount } ->
      op op_work;
      v cur;
      v amount;
      last_loc

(* -- crc32 ------------------------------------------------------------- *)

(* Slicing-by-8: table [k] (entries [256k .. 256k+255]) advances a CRC
   over a byte followed by [k] zero bytes, so eight table lookups fold
   eight input bytes at once. Table 0 is the classic bytewise table. *)
let crc_tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"

let[@inline] le32 b i =
  let x = Int32.to_int (get32u b i) land 0xFFFFFFFF in
  if Sys.big_endian then
    ((x land 0xFF) lsl 24)
    lor ((x land 0xFF00) lsl 8)
    lor ((x lsr 8) land 0xFF00)
    lor (x lsr 24)
  else x

let crc32_init = 0

let crc32_update crc bytes ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length bytes - len then
    invalid_arg "Log_format.crc32_update";
  let t = crc_tables in
  let[@inline] tab k n = Array.unsafe_get t ((k * 256) + (n land 0xFF)) in
  let c = ref (crc lxor 0xFFFFFFFF) in
  let i = ref pos in
  let last8 = pos + len - 8 in
  while !i <= last8 do
    let one = le32 bytes !i lxor !c and two = le32 bytes (!i + 4) in
    c :=
      tab 7 one
      lxor tab 6 (one lsr 8)
      lxor tab 5 (one lsr 16)
      lxor tab 4 (one lsr 24)
      lxor tab 3 two
      lxor tab 2 (two lsr 8)
      lxor tab 1 (two lsr 16)
      lxor tab 0 (two lsr 24);
    i := !i + 8
  done;
  for j = !i to pos + len - 1 do
    c := tab 0 (!c lxor Char.code (Bytes.unsafe_get bytes j)) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF
