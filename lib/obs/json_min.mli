(** Minimal JSON parser — just enough to round-trip {!Trace_event},
    telemetry and audit output in tests without an external dependency
    — plus the one string escaper those writers share.

    Handles the full JSON value grammar; [\u] escapes are decoded for
    code points below 256 (all this repo's emitters ever produce) and
    replaced with ['?'] otherwise. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result

val member : string -> t -> t option
(** [member key (Obj kvs)] looks up [key]; [None] on non-objects. *)

val escape : Buffer.t -> string -> unit
(** [escape b s] appends [s] to [b] as the body of a JSON string (no
    surrounding quotes): ['"'] and ['\\'] are backslash-escaped, every
    other byte below [0x20] becomes [\u00XX], and all other bytes pass
    through untouched. *)
