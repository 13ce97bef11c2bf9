(** The .sflog binary event-log format (version 1): wire-level codecs
    shared by {!Recorder} (writer) and {!Stream_reader} (the one
    decoder).

    A log is a header, a sequence of {e chunks}, and a footer:

    {v
    header  ::= magic "SFLG" (4 bytes) | version (1 byte, = 1)
    chunk   ::= 0x01 | worker:varint | len:varint | payload (len bytes)
    footer  ::= 0x00 | events:varint | states:varint | workers:varint
                     | crc32 (4 bytes, little-endian)
    v}

    Chunk payloads are event records. Concatenating one worker's chunk
    payloads in file order yields that worker's {e stream}: a total order
    of the events the worker executed, consistent with real time on that
    worker. Events never span a chunk boundary (the recorder flushes only
    at event boundaries). The footer CRC covers every chunk payload byte
    in file order; [states] is the exclusive upper bound on state IDs, so
    a reader can validate every reference once the footer arrives.

    Integers are LEB128-style varints (7 bits per byte, low bits first,
    high bit = continue; at most 10 bytes — OCaml's 63-bit int range).
    Access locations are delta-encoded per worker stream (zigzag of the
    difference from the previous access location in the same stream), so
    the dominant record — an access to a nearby location — is 3 bytes. *)

val magic : string
(** ["SFLG"]. *)

val version : int

(** Event records. State IDs are dense from 0 (the root strand); every ID
    is {e defined} by exactly one event (or is the root) and may be
    referenced by later events of any worker. *)
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

(** Typed decode errors. [offset] is the absolute byte offset in the
    file, so a corrupt log names the exact byte. *)
type error =
  | Bad_magic of { got : string }
  | Bad_version of { got : int }
  | Truncated of { offset : int; while_ : string }
  | Bad_varint of { offset : int }
  | Bad_opcode of { offset : int; opcode : int }
  | Bad_crc of { expected : int; got : int }
  | State_out_of_range of { offset : int; id : int; bound : int }
  | Corrupt of { offset : int; what : string }

val error_to_string : error -> string

(* -- varints ----------------------------------------------------------- *)

val write_varint : Buffer.t -> int -> unit
(** @raise Invalid_argument on negative input. *)

val write_zigzag : Buffer.t -> int -> unit
(** Signed variant (zigzag then varint). *)

val read_varint : Bytes.t -> pos:int -> limit:int -> (int * int, error) result
(** [(value, next_pos)]; fails with [Bad_varint] (overflow / more than 10
    bytes) or [Truncated]. *)

val unzigzag : int -> int
(** Inverse of the zigzag mapping {!write_zigzag} applies. *)

(* -- events ------------------------------------------------------------ *)

(** Opcodes: the first byte of each event record, one per constructor
    of {!event}, in declaration order from 1. *)

val op_spawn : int
val op_create : int
val op_sync : int
val op_put : int
val op_get : int
val op_returned : int
val op_read : int
val op_write : int
val op_work : int

val write_event : Buffer.t -> last_loc:int -> event -> int
(** Append one event record; returns the new [last_loc] (the delta base
    for the stream's next access). The {!Recorder} encodes the same
    records without building an [event]; this is the reference encoder
    the tests write logs with. *)

(* -- crc32 ------------------------------------------------------------- *)

val crc32_init : int
val crc32_update : int -> Bytes.t -> pos:int -> len:int -> int
(** Standard CRC-32 (polynomial 0xEDB88320), kept in an int in
    [0, 0xFFFFFFFF]; slicing-by-8, eight bytes per step.
    @raise Invalid_argument if [pos]/[len] is not a valid slice of the
    bytes. *)
