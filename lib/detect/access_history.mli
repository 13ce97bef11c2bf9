(** Shadow memory — the access-history component (paper Sections 3.5, 4).

    One paged table ({!Sfr_support.Loc_table}) maps each location to its
    cell under every mode. A lookup is an atomic directory read and two
    array loads: no lock, no hash, no allocation. The table's memory is
    proportional to the 64-location pages touched: its directory spans
    at most [max (2{^16} locations, 8 × pages in use)], and a page beyond
    that goes to an overflow map, so no pattern of locations — a
    downward walk, or far-apart locations from an untrusted [.sflog] —
    can allocate a span-sized array. Per location the history keeps the
    last writer and previous readers under one of two policies:

    - [Keep_all]: every reader since the last write (collapsing
      consecutive same-strand reads) — what both F-Order and the paper's
      own SF-Order implementation store;
    - [Lr_per_future]: only the leftmost and rightmost reader per future
      dag — the ≤ 2k bound this paper proves sufficient for structured
      futures (Lemmas 3.10/3.11). Requires English/Hebrew comparators.

    The three synchronization modes differ only in how they synchronize
    a cell — they address the paper's closing observation that
    access-history synchronization dominates full-detection overhead:

    - [`Mutex]: 64 striped locks; the [check] callbacks run inside the
      location's critical section, so each location's access sequence
      is linearized. The paper's design.
    - [`Unsynchronized]: no synchronization at all — sound only under a
      serial execution; isolates the locking cost (ablation A).
    - [`Lockfree]: the "redesigned access history" the paper's conclusion
      asks for. Writers install themselves with an atomic exchange and
      drain the reader set with another; readers push onto a Treiber
      stack and then validate against the current writer. Per-location
      completeness is preserved: for any conflicting parallel pair, either
      the reader is in the set a writer drains, or (by the real-time order
      that dag precedence forces) the reader observes that writer or a
      racing successor of it, so some check on that location fires.
      [`Lockfree] supports the [Keep_all] policy only.

    On a write the readers are drained/cleared and the writer replaced —
    the standard update preserving the per-location reported-iff-exists
    guarantee.

    {2 Hot paths}

    Four properties of the access path; none of them changes a race
    report or a query count:

    - {b One check, fixed at creation}: the race check is the [~check]
      function given to {!create}, called as [check prev cur loc kind];
      no access builds a closure. Writer slots hold the accessor itself,
      with the [none] sentinel for "no write yet". A [Keep_all] access
      allocates nothing beyond a new reader's cons cell (3 words; under
      [`Lockfree], or past the inline slots), a cell's first inline-slot
      array and the table page of a first-touched location.
    - {b Last-writer filter}: a write whose strand is already the
      installed writer for the location — and with no reader registered
      since — skips the evict/install cycle; only the writer-vs-writer
      race check runs, so the query count does not depend on the filter.
      Every mode finds such writes by reading the location's own cell:
      its writer slot and its reader count (reader stack under
      [`Lockfree]), with no lock and no atomic write. A stale read is
      sound: a stale
      "same writer, no readers" can only follow some other access to the
      location that went through the locked path after this strand's
      write installed itself — and that access was checked against this
      strand's installed write, so the pair was already examined.
      Counted by [history.write.fastpath].
    - {b Inline readers}: under [Keep_all] in [`Mutex] and
      [`Unsynchronized], the first 8 readers of each write epoch live in
      a mutable array reused across epochs — the common case allocates
      no cons cell per read — spilling to a list past 8. Eviction
      iterates newest first, the order of [`Lockfree]'s reader stack, so
      first-race attribution does not depend on the mode.
    - {b Mixed stripe hashing}: stripe selection multiplies the location
      by the golden-ratio constant and takes the high bits, so
      power-of-two strided access patterns spread across stripes instead
      of serializing on one lock. *)

type 'a policy =
  | Keep_all
  | Lr_per_future of {
      future_of : 'a -> int;
      more_left : 'a -> 'a -> bool;
          (** [more_left a b]: [a] strictly before [b] in English order. *)
      more_right : 'a -> 'a -> bool;
          (** [more_right a b]: [a] strictly before [b] in Hebrew order
              (i.e. further right in the dag). *)
      covers : 'a -> 'a -> bool;
          (** [covers a b]: [a ≺ b] in the dag — [a] is redundant once [b]
              is stored (Mellor-Crummey's replacement rule). *)
    }

type sync_mode = [ `Mutex | `Unsynchronized | `Lockfree ]

type 'a t

val create :
  sync:sync_mode -> none:'a -> check:('a -> 'a -> int -> Race.kind -> unit) -> 'a policy -> 'a t
(** [~sync] has no default here: each detector's [?history] decides it.
    [check prev cur loc kind] is the race check: [prev] is the stored
    access, [cur] the current accessor and [kind] names the pair
    ([Write_read] on a read against the stored writer, [Write_write] and
    [Read_write] on a write). [none] fills the writer slot of a location
    no write has reached; it must never be physically equal to an
    accessor, and [check] is never called on it.
    @raise Invalid_argument for [`Lockfree] with [Lr_per_future]. *)

val on_read : 'a t -> loc:int -> accessor:'a -> unit
(** Checks the stored last writer (if any), then records the reader per
    policy. *)

val on_write : 'a t -> loc:int -> accessor:'a -> unit
(** Checks the stored writer and every stored reader, then clears the
    readers and installs the new writer. *)

(** The statistics below read cells without their locks: call them once
    the accessing domains have quiesced. *)

val locations_tracked : 'a t -> int
val readers_stored : 'a t -> int
(** Currently stored readers across all locations. *)

val max_readers_at_once : 'a t -> int
(** High-water mark of readers stored for a single location — the
    quantity the paper bounds by 2k for structured futures. (Approximate
    under [`Lockfree].) *)

val words : 'a t -> int
