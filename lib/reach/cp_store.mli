(** [cp(G)] for every future [G] (paper Sections 3.2 and 3.4): the set
    of [G]'s future ancestors, read by Algorithm 1's second case.

    [cp(G)] is exactly [G]'s ancestor chain in the create tree, and IDs
    are handed out in creation order, so the chain sorted by ID is also
    sorted by depth. Each future stores it in whichever of two layouts is
    smaller:

    - a {e chain}: an [int array], root first, so that entry [d] is [G]'s
      ancestor at depth [d]. [F ∈ cp(G)] is then
      [depth F < length && chain.(depth F) = F]: O(1), no scan. It costs
      one word per ancestor.
    - a {e bitmap} ({!Sfr_support.Bitset}) over IDs up to the parent's:
      denser for a deep, narrow nest, where a chain would cost O(k²)
      words over [k] nested creates.

    A future gets a chain iff [depth ≤ parent_id / Sys.int_size + 4],
    decided from its own depth and parent ID — never inherited from the
    parent's layout. Entries are immutable once published and live in a
    {!Sfr_support.Chunk_vec}: lock-free reads, O(1) amortized appends.
    Entry and container words are charged to the
    [reach.table.alloc_words] counter; each bitmap-layout future bumps
    [reach.cp.bitmaps]. *)

type t

val create : unit -> t
(** A store holding the root future, ID 0, at depth 0 with an empty
    [cp]. *)

val add_child : t -> parent:int -> int
(** [add_child t ~parent] allocates the next future ID, a child of
    [parent], with [cp = cp(parent) ∪ {parent}], and returns it.
    Thread-safe; the caller must hand the ID to other domains through a
    synchronizing handoff (see {!Sfr_support.Chunk_vec}). *)

val mem : t -> int -> fid:int -> depth:int -> bool
(** [mem t g ~fid ~depth] is whether future [fid], at [depth], is in
    [cp(g)]. O(1), lock-free, allocates nothing. *)

val words : t -> int
(** Cumulative words allocated into entries (nothing is ever freed): the
    per-future tables, without the container. *)
