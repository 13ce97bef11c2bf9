(** The detector registry: the single seam through which the CLI, the
    replay/serve paths, the bench harness, and the chaos driver
    enumerate race-detector backends.

    Every backend is a named constructor for a fresh {!Detector.t} plus
    capability flags the callers gate on, so adding a detector to this
    list is enough to give it run/record/replay, figures, soak, and the
    CI smoke matrix ([make detector-smoke]) without touching any of them.

    The list is fixed, in presentation order: [multibags], [f-order],
    [sf-order], [sf-order-2pf]. The harness figure tables iterate
    [all ()] filtered on [caps.figure] — exactly the historical
    MultiBags / F-Order / SF-Order columns. [Naive_detector] is
    deliberately absent: it is the offline ground truth (exact DAG
    reachability), not an {!Sfr_runtime.Events} client. *)

type caps = {
  supports_parallel : bool;
      (** can run under the parallel executor (mirrors
          {!Detector.t.supports_parallel}). *)
  figure : bool;  (** appears in the paper-reproduction figure tables. *)
}

type entry = {
  name : string;  (** CLI name, e.g. ["sf-order"]. *)
  label : string;  (** display label for figure columns, e.g. ["SF-Order"]. *)
  doc : string;  (** one-line description for listings. *)
  make : unit -> Detector.t;  (** fresh single-use instance. *)
  caps : caps;
}

val find : string -> entry option
val all : unit -> entry list
(** In presentation order. *)

val names : unit -> string list

val listing : unit -> string
(** Human-readable table of every entry: name, flags, doc. *)

val unknown : string -> string
(** Error text for an unrecognized name — includes the listing. *)
