(** Seeded fault injection for the runtime and the detectors.

    The parallel implementation (worker deques, access-history CAS/lock
    paths, OM relabel windows) is only exercised on the schedules the OS
    happens to produce. This module plants {!point} hooks at the
    scheduling-sensitive boundaries; when armed with a seed, a
    deterministic per-site policy decides at each arrival to do nothing,
    yield, busy-delay (widening race windows), or raise a synthetic
    {!Injected} fault — so schedule-dependent bugs become reproducible
    inputs instead of heisenbugs.

    {b Determinism.} A decision is a pure function of
    [(seed, site, arrival index)]: the k-th arrival at a site draws the
    same verdict on every run. Under the serial executor arrival orders
    are themselves deterministic, so the whole decision {!trace} is
    reproducible from the seed alone; under the parallel executor the
    per-site decision {e streams} are reproducible while their
    interleaving (and the winner of the shared fault budget) may vary.

    {b Cost.} Disarmed (the default), {!point} and {!force_steal} are one
    atomic flag load and a branch — the same discipline as
    {!Sfr_obs.Metrics.disable}, cheap enough to compile into hot paths
    unconditionally.

    Arming is process-global (one chaos campaign at a time), matching the
    one-run-at-a-time constraint of {!Sfr_runtime.Par_exec}. *)

type site =
  | Spawn  (** a spawn event is being processed *)
  | Create  (** a future-create event is being processed *)
  | Get  (** a get/touch event is being processed *)
  | Sync  (** a sync/join event is being processed *)
  | Steal  (** a worker stole a task (perturb-only site) *)
  | Lock_acquire  (** an access-history stripe lock / CAS publication *)
  | Relabel  (** an OM relabel window is open (perturb-only site) *)
  | Task  (** a scheduled task is about to run *)
  | Record  (** an event-log structural record is being appended *)
  | Log_flush  (** an event-log buffer is about to flush to the file *)
  | Wire
      (** a protocol frame is crossing a (loopback) transport — decided
          through {!wire_fault}, not {!point} *)

val all_sites : site list
val site_name : site -> string

type action = Pass | Yield | Delay of int | Fault | Force_steal

val action_name : action -> string

exception Injected of { site : site; seq : int }
(** The synthetic fault. [seq] is the arrival index at [site], so a crash
    report names the exact replayable decision that fired. *)

type config = {
  yield_rate : float;  (** P(yield) per point *)
  delay_rate : float;  (** P(busy delay) per point *)
  fault_rate : float;  (** P(raise {!Injected}) per point at fault sites *)
  steal_rate : float;  (** P([force_steal] returns true) *)
  wire_rate : float;
      (** P({!wire_fault} mangles a frame); 0 in the default configs *)
  max_delay_spins : int;  (** upper bound on one delay's spin count *)
  fault_sites : site list;
      (** sites where [Fault] may fire. Keep {!Steal}, {!Lock_acquire}
          and {!Relabel} out of this list: those points sit inside
          scheduler loops or critical sections where a synthetic raise
          would test the injector, not the system. {!Record} and
          {!Log_flush} are valid fault sites: a raise there abandons an
          event-log mid-write, which is exactly how the torn/truncated-log
          corpus for {!Sfr_eventlog.Stream_replay} is produced. *)
  max_faults : int;  (** cap on faults raised per armed campaign *)
}

val default_config : config
(** Perturbation only: yields, delays and forced steals, no faults. *)

val fault_config : config
(** {!default_config} plus a small fault rate, one fault per campaign. *)

val arm : ?config:config -> seed:int -> unit -> unit
(** Start a campaign: same [seed] (and config) ⇒ same per-site decision
    streams. Replaces any previous campaign. *)

val disarm : unit -> unit
(** Stop injecting. The campaign's {!trace} and {!injected_count} remain
    readable until the next {!arm}. *)

val armed : unit -> bool

val with_armed : ?config:config -> seed:int -> (unit -> 'a) -> 'a
(** [with_armed ~seed f] arms, runs [f], and disarms (also on raise). *)

val point : site -> unit
(** The injection hook. No-op (one atomic load) while disarmed; armed, it
    draws the site's next decision and yields / delays / raises
    {!Injected} accordingly.

    @raise Injected when the decision is [Fault], [site] is in
    [fault_sites], and the campaign's fault budget is not exhausted. *)

val force_steal : unit -> bool
(** Scheduler decision hook: [true] tells the worker to try stealing
    before popping its own deque, forcing help-first schedules that
    rarely arise naturally. Never raises. *)

(** {2 Wire faults}

    Transport-level mangling for the frame protocol of
    [Sfr_serve]: the deterministic loopback harness asks before
    delivering each frame and applies the drawn fault to the frame's
    byte image — no real sockets needed to exercise torn frames, CRC
    corruption, duplication, and mid-frame disconnects. *)

type wire_fault =
  | Wire_pass  (** deliver untouched *)
  | Wire_truncate of int
      (** deliver only the first [n] bytes, then nothing more of this
          frame ([n < frame_len]) *)
  | Wire_duplicate  (** deliver the frame twice *)
  | Wire_corrupt of int  (** flip a bit of the byte at this offset *)
  | Wire_disconnect  (** drop the frame and hang up mid-stream *)

val wire_fault_name : wire_fault -> string

val wire_fault : frame_len:int -> wire_fault
(** Draw the next wire decision ([Wire_pass] while disarmed, and with
    probability [1 - wire_rate] while armed). Deterministic per
    [(seed, arrival index)] like every other stream; truncation points
    and corruption offsets land in [\[0, frame_len)]. Recorded in the
    campaign {!trace} at site {!Wire} with action [Fault]. Never
    raises. *)

val trace : unit -> (site * int * action) list
(** Non-[Pass] decisions of the current (or last) campaign, sorted by
    (site, arrival index) — the canonical form compared by the
    fixed-seed determinism tests. *)

val trace_strings : unit -> string list
(** {!trace} rendered ["site#seq:action"], for reports and diffs. *)

val injected_count : unit -> int
(** Faults actually raised by the current (or last) campaign. *)
