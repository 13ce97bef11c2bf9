(** The user-facing task-parallel programming interface (the Cilk-F
    analogue): fork-join via [spawn]/[sync], structured futures via
    [create]/[get], plus instrumented memory.

    A "program" is any OCaml function using these primitives; it must run
    under one of the executors ({!Serial_exec} or {!Par_exec}), which
    handle the effects the four control primitives perform. The executor
    enforces the structured-future discipline dynamically: a handle is
    gettable at most once, and (in serial execution) a get that would
    block indicates an unstructured program and raises.

    Memory is allocated in a single flat location space so detectors can
    key their access history by integer location. [rd]/[wr]/[work] never
    suspend: rather than perform an effect they call the running
    executor's access sink (the paper's compiler-inserted call at each
    load and store). The client's [on_read]/[on_write]/[on_work] thus run
    on the program's own stack: an exception they raise unwinds through
    the program's frames, where a [try ... with] can catch it. *)

type !'a handle
(** A future handle. *)

exception Unstructured_use of string
(** Raised on single-touch violations, or when a serial execution would
    block (which a structured-futures program never does, paper §2). *)

exception No_executor
(** Raised by [rd], [wr], [work] outside an executor, never dropped. *)

val spawn : (unit -> unit) -> unit
(** The spawned subroutine may run in parallel with the continuation. *)

val sync : unit -> unit
(** Joins all subroutines spawned by the current function frame. Does not
    wait for created futures. *)

val create : (unit -> 'a) -> 'a handle
(** Start a future task; it may run in parallel with the continuation. *)

val get : 'a handle -> 'a
(** Wait for and return the future's value. At most once per handle. *)

val work : int -> unit
(** Account abstract compute ticks to the current strand (cost model for
    the scheduling simulator); no detector queries. *)

(* -- instrumented memory ---------------------------------------------- *)

type 'a arr

val alloc : int -> 'a -> 'a arr
(** [alloc n init] — an instrumented array of [n] cells. Cells occupy
    fresh location IDs in a global location space. Allocation itself is
    not an instrumented access. *)

val length : 'a arr -> int
val base : 'a arr -> int
(** Location ID of element 0; element [i] is location [base + i]. *)

val rd : 'a arr -> int -> 'a
(** Instrumented read: reports the location, then reads the cell. *)

val wr : 'a arr -> int -> 'a -> unit
(** Instrumented write: reports the location, then writes the cell. *)

val rd_raw : 'a arr -> int -> 'a
(** Uninstrumented read — for output checking outside the monitored
    region, not for use inside programs under detection. *)

val wr_raw : 'a arr -> int -> 'a -> unit

(* -- executor-internal ------------------------------------------------- *)

(** Effects performed by the control primitives; handled by executors only. *)
type _ Effect.t +=
  | Spawn : (unit -> unit) -> unit Effect.t
  | Sync : unit Effect.t
  | Create : (unit -> 'a) -> 'a handle Effect.t
  | Get : 'a handle -> 'a Effect.t

val with_sink : Events.callbacks -> Events.state ref -> (unit -> 'a) -> 'a
(** [with_sink cb cur f] runs [f] with the calling domain's access sink
    sending [rd]/[wr]/[work] to [cb] at strand [!cur], and restores the
    previous sink when [f] returns or raises. *)

module Handle : sig
  (** Internal representation manipulated by executors. *)

  type status = Running | Done

  val make : unit -> 'a handle
  val fulfil : 'a handle -> 'a -> last:Events.state -> unit
  (** Publish the result and the put-node state; flips status to [Done].
      Runs the registered waiter callbacks (if any) after publishing. *)

  val status : 'a handle -> status
  val result_exn : 'a handle -> 'a
  val last_exn : 'a handle -> Events.state
  val claim_touch : 'a handle -> unit
  (** Enforce single-touch. @raise Unstructured_use on a second claim. *)

  val add_waiter : 'a handle -> (unit -> unit) -> bool
  (** Register a callback to run once fulfilled. Returns [false] (without
      registering) if the handle is already fulfilled — the caller should
      proceed directly. Thread-safe. *)
end
