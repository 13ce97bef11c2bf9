(** Multicore work-stealing executor over OCaml 5 domains.

    The substrate the parallel detectors (SF-Order, F-Order) run on — the
    analogue of the paper's extended Cilk-F runtime. Scheduling is
    help-first: a spawn/create pushes the child task onto the worker's
    deque (stealable) and the parent continues; [sync] and [get] suspend
    by parking their one-shot continuation and returning the worker to the
    scheduler, to be re-enqueued when the join count reaches zero / the
    future is fulfilled. Help-first explores schedules a depth-first
    execution never produces, which is exactly what the on-the-fly
    detectors must be robust to.

    Client callbacks must be thread-safe; {!Events.null} and the detectors
    in [sfr_detect] are. One [run] at a time per process (worker identity
    lives in domain-local storage).

    On a deadlocked program (possible only with unstructured future use)
    [run] raises {!Program.Unstructured_use} instead of hanging.

    {b Failure semantics.} If any task — however deeply nested — raises,
    the first exception (with its backtrace) is captured, every worker
    stops at its next scheduling decision, the remaining queued tasks are
    drained and dropped, and the exception is re-raised at the join. A
    raising task can therefore never wedge the run or kill a lone domain.
    This includes synthetic {!Sfr_chaos.Chaos.Injected} faults: the
    executor's spawn/create/get/sync/steal/task boundaries are
    {!Sfr_chaos.Chaos.point} injection sites (free unless armed). *)

module Deque : sig
  type t

  val create : unit -> t
  val push_bottom : t -> (unit -> unit) -> unit
  val pop_bottom : t -> (unit -> unit) option
  val steal_top : t -> (unit -> unit) option

  val depth : t -> int
  (** Unlocked racy size estimate for the telemetry probe (clamped to
      [>= 0]; may be momentarily stale against a concurrent owner). *)
end
(** The per-worker deque (owner LIFO bottom, thief FIFO top). Exposed so
    the randomized model test can audit the ring-buffer grow/wraparound
    indexing; not part of the stable API. *)

(** {1 Scheduler probes}

    Telemetry-facing visibility into the running scheduler. Per-worker
    counters (tasks executed, successful steals, idle spins) are plain
    ints written only by their owning worker and {e only while}
    {!Sfr_obs.Telemetry.armed} — the disarmed cost at each scheduling
    decision is a single atomic flag load. Reads are unsynchronized:
    a probe taken mid-run can be a few events stale per worker, which is
    inherent to sampling. *)

type probe = {
  workers : int;
  deque_depths : int array;  (** racy per-worker queue depths, now *)
  tasks : int array;  (** tasks executed per worker this run (armed only) *)
  steals : int array;  (** successful steals per worker (armed only) *)
  idle_spins : int array;  (** empty scheduling decisions (armed only) *)
}

val probe : unit -> probe option
(** The live scheduler's state, or — between runs — the frozen
    end-of-run probe of the most recent run ([None] before the first
    run). Safe from any domain. *)

val last_probe : unit -> probe option
(** The probe frozen at the end of the most recent completed [run]
    (even if it failed). Per-worker totals reconcile exactly against the
    [runtime.tasks] / [runtime.steals] {!Sfr_obs.Metrics} deltas for
    that run when telemetry was armed throughout. *)

val probe_metrics : unit -> (string * int) list
(** {!probe} flattened to gauge series for
    {!Sfr_obs.Telemetry.start}'s [?probe] argument: aggregate
    [sched.workers], [sched.deque_depth], [sched.tasks],
    [sched.steals], [sched.idle_spins], then per-worker
    [sched.w<i>.…] variants. Empty if no run has started. *)

val max_workers : int
(** 64: the most workers {!run} accepts. Each worker past the first is
    its own domain, and OCaml 5 caps a process at 128 live domains. *)

val run :
  ?workers:int ->
  Events.callbacks ->
  root:Events.state ->
  (unit -> 'a) ->
  'a * Events.state
(** [run ~workers callbacks ~root main] — defaults to
    [Domain.recommended_domain_count ()] workers (at most {!max_workers}).
    Returns [main]'s result and the root computation's final (put-node)
    state. Returns only after {e all} tasks, including created futures
    whose handles escaped, have completed.
    @raise Invalid_argument when [workers] is outside [1..max_workers],
    before any domain is spawned. *)
