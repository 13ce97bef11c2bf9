(** Uniform view of an on-the-fly race detector instance.

    A detector is an {!Events.callbacks} client plus introspection used by
    the benchmark harness (query counts, reachability-structure memory for
    Figure 5) and the tests (per-location race verdicts). Instances are
    single-use: make one per execution. *)

type t = {
  name : string;
  callbacks : Sfr_runtime.Events.callbacks;
  root : Sfr_runtime.Events.state;
  races : Race.t;
  queries : unit -> int;
      (** reachability queries performed (Figure 3's "# queries"). *)
  reach_words : unit -> int;
      (** live machine words in reachability structures. *)
  reach_table_words : unit -> int;
      (** cumulative words allocated into the per-node future tables
          (gp and cp tables, or nsp hash tables) — the Figure 5 metric; our
          tables are reference-counted and freed, whereas the paper's
          implementations retain one per node, so the cumulative count is
          what corresponds to their measurement. *)
  history_words : unit -> int;
  max_readers : unit -> int;
      (** access-history high-water mark of readers per location. *)
  metrics : unit -> (string * int) list;
      (** named-counter snapshot attributed to this instance (see
          {!Sfr_obs.Metrics} and DESIGN.md §8 for the name taxonomy) —
          e.g. the [reach.query.*] case breakdown whose entries sum to
          [queries ()]. Meaningful only while no other detector instance
          runs concurrently in the process; [no_metrics] otherwise. *)
  supports_parallel : bool;
      (** false for the sequential (MultiBags-style) detector, whose
          reachability is only meaningful under depth-first execution. *)
}

val racy_locations : t -> int list

val no_metrics : unit -> (string * int) list
(** Always empty — for detectors (or tests) that opt out. *)

val metrics_since_creation : unit -> unit -> (string * int) list
(** [metrics_since_creation ()] captures the global {!Sfr_obs.Metrics}
    state now and returns a thunk reporting the growth since — the
    standard implementation of the [metrics] field. *)
