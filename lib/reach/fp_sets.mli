(** The [gp] future-set engine (paper Section 3.4).

    [gp(v)]: for each strand [v], the set of futures [F] whose last node
    NSP-precedes [v]. Conceptually [gp(v) = ∪_{u→v} gp(u)]; tables are
    shared by pointer along serial chains and freshly merged only when no
    input subsumes the others (plus one table per get node, which must
    add its gotten future) — the paper argues this happens O(k) times.
    ([cp(G)] lives in {!Cp_store}.)

    Tables are reference-counted for sharing, and immutable once
    published — additions copy — so a strand state's set never changes
    after the strand completes; a multicore executor hands each strand
    its own reference, and merge inputs are quiescent (their strands
    completed before the join, ordered by the runtime's join
    synchronization).

    Two backends mirror the paper's Section 4 comparison: [Bitmap] is
    SF-Order's array-of-bit-words representation (possible only because
    structured futures need just a membership bit per future), windowed
    to the words between a table's smallest and largest member
    ({!Sfr_support.Bitset}); [Hashed] is the full hash-table-per-node
    representation general-futures detectors like F-Order are forced
    into. The ablation bench contrasts them. *)

type backend = Bitmap | Hashed

type t
(** Engine state: allocation statistics plus the shared empty table. *)

type table
(** A reference-counted future set. *)

val create : backend -> t
val backend : t -> backend

val empty : t -> table
(** A shared canonical empty table (refcount-pinned; never mutated). *)

val share : table -> table
(** The same table with its refcount bumped: the caller now owns one
    more reference. *)

val release : table -> unit
(** Give up one reference. *)

val mem : table -> int -> bool
(** One bounds check and one word probe for [Bitmap]; allocates
    nothing. *)

val with_added : t -> table -> int -> table
(** [with_added t tbl i] consumes the caller's reference to [tbl] and
    returns an owned table equal to [tbl ∪ {i}] (by copy unless [i] is
    already present: published tables are immutable, so that a query
    against a completed strand's set — e.g. one stored in the access
    history or collected by a client — always sees the set as it was at
    that strand). *)

val merge : t -> table -> table list -> table
(** [merge t primary others] consumes the caller's references to all
    inputs and returns an owned table equal to their union. Allocates a
    fresh table only when no input subsumes all the others (the paper's
    merge-only-when-necessary rule). Only the largest input can, and
    cardinalities are cached, so finding it is O(1) per input. *)

val cardinal : table -> int
(** O(1). *)

val elements : table -> int list

(* -- statistics (Figure 5 / ablation) --------------------------------- *)

val allocations : t -> int
(** Number of fresh tables ever allocated (the O(k) claim). *)

val live_words : t -> int
(** Machine words held by tables that still have owners. *)

val peak_words : t -> int

val total_words : t -> int
(** Cumulative words ever allocated into tables (never decremented) —
    what a retain-everything implementation like the paper's would hold,
    and the Figure 5 metric. *)
