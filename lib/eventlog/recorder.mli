(** Execution recording: an {!Sfr_runtime.Events.callbacks} client that
    serializes the event stream to a .sflog file instead of detecting
    races online.

    The recorder threads a dense integer {e state ID} per strand. Each
    worker (OCaml domain) appends fixed-cost binary records to a private
    buffer — one buffer write per event when armed, no locks on the hot
    path — and flushes whole chunks to the shared output channel under a
    mutex when the buffer fills. Every state ID is allocated (one atomic
    fetch-and-add per {e structural} event; accesses allocate nothing)
    before any event referencing it can be recorded on any worker, so
    each worker stream is consistent with real time and the union of
    streams admits the greedy topological merge {!Stream_replay}
    performs.

    Compose with other clients via {!Sfr_runtime.Events.pair} (e.g. to
    record and detect in the same run), or use alone for minimum-overhead
    production recording.

    Instances are single-use. {!close} must be called after the executor
    has returned (all domains joined): it flushes every worker buffer and
    writes the footer; a log without a footer is reported as truncated by
    the reader. *)

type t

type stats = {
  events : int;  (** events recorded across all workers *)
  bytes : int;  (** chunk payload bytes written *)
  flushes : int;  (** chunks written (buffer-full flushes + final) *)
  workers : int;  (** distinct domains that recorded events *)
  states : int;  (** state IDs allocated (strands) *)
}

val create :
  ?buf_size:int -> path:string -> unit -> t * Sfr_runtime.Events.callbacks * Sfr_runtime.Events.state
(** Open [path] for writing and return the recorder, its callbacks and
    the root state. [buf_size] (default 64 KiB) is the per-worker flush
    threshold.
    @raise Sys_error if [path] cannot be opened. *)

val close : t -> stats
(** Flush all buffers, write the footer, close the file. Idempotent
    (subsequent calls return the same stats without touching the file). *)
