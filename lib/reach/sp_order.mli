(** On-the-fly series-parallel reachability over the pseudo-SP-dag
    (the WSP-Order component of SF-Order).

    Two order-maintenance lists hold every strand in the {e English}
    (left-to-right depth-first) and {e Hebrew} (right-to-left depth-first)
    orders; [u] precedes [v] in the SP dag iff it precedes it in both
    (Nudler–Rudolph). Insertion rules, at a spawn (or create — the
    pseudo-SP-dag treats them identically) from current strand [u] with
    child-first strand [c] and continuation strand [t]:

    - English: insert [c] after [u], then [t] after [c]   (child first);
    - Hebrew:  insert [t] after [u], then [c] after [t]   (child last).

    Sync handling uses a {e join placeholder} per sync block: at the first
    spawn of a block, a placeholder [j] is inserted in the Hebrew order
    immediately after the child [c]. Every strand subsequently inserted in
    the block lands strictly before [j] (order-maintenance inserts are
    immediately-after, so anchors below [j] stay below [j]), making [j] the
    Hebrew-maximum of the block. The strand following the sync takes [j] as
    its Hebrew position and a fresh English position after the pre-sync
    strand (the English maximum of the block). This reproduces the in-order
    positions of the SP parse tree and is differential-tested against
    ground-truth PSP reachability.

    Thread safety: the underlying {!Sfr_om.Om} lists serialize mutations
    and validate label reads with a seqlock, so queries are safe against
    concurrent inserts; the relative order of already-inserted strands
    never changes, so [precedes] is linearizable. *)

type t
type pos
(** A strand's position in both orders. *)

type block
(** A sync block's Hebrew join placeholder. *)

val create : unit -> t * pos
(** Fresh structure with the root strand's position. *)

val spawn : t -> cur:pos -> block:block option -> pos * pos * block
(** [(child, continuation, block')] — [block'] is the existing block, or a
    fresh one if this is the block's first spawn. Use for both [spawn] and
    [create] events. *)

val sync : t -> cur:pos -> block:block option -> pos
(** Position of the strand following the sync. With [block = None] (no
    spawn or create since the last sync) the current position is reused. *)

val step : t -> cur:pos -> pos
(** Fresh position immediately after [cur] in both orders — for strands
    beginning at a get (the pseudo-SP-dag drops get edges, so a get is a
    plain serial step). *)

val precedes : t -> pos -> pos -> bool
(** [u ↠ v]: strictly before in both orders. O(1). *)

val parallel : t -> pos -> pos -> bool

val size : t -> int
val words : t -> int

val eng_precedes : t -> pos -> pos -> bool
(** Strictly before in the English (left-to-right depth-first) order
    alone — the "leftmost" comparison of Mellor-Crummey reader caching. *)

val heb_precedes : t -> pos -> pos -> bool
(** Strictly before in the Hebrew (right-to-left) order alone — the
    "rightmost" comparison. *)
