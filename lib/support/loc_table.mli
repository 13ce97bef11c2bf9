(** Find-or-create table from integer location to cell, with lock-free
    lookups.

    Built for shadow memory: locations arrive from many domains, are
    mostly dense (an allocator hands out consecutive IDs) but need not
    start near zero, and an untrusted input may name arbitrary ones.
    Locations are grouped into pages of 64 cells. A directory — a
    window over page numbers — maps a page number to its page, so

    - [get] on a location whose cell exists is one atomic directory read
      and two array loads: no lock, no allocation;
    - a cell or page is created under one internal mutex. A new page is
      stored into the published directory in place, or behind a
      copy-on-write directory snapshot when the window must grow. Pages
      are shared between snapshots, so a cell never moves: every [get]
      of a location returns the physically same cell.

    {b Memory bound.} The directory grows toward the miss, at least
    doubling, so a walk of [n] pages in either direction costs O(n)
    words, not a window per step. The window never covers more than
    [max (2{^16} locations, 8 × pages in use)]: a page that would stretch
    it further goes to a small overflow map, consulted under the mutex
    only after a directory miss, until the window grows over it and the
    page moves into the directory. Live words are therefore
    O(pages in use + 2{^10}) whatever the locations' spread. *)

type 'a t

val create : dummy:'a -> (unit -> 'a) -> 'a t
(** [create ~dummy make] is an empty table. [make ()] builds a
    location's cell the first time it is asked for (under the internal
    mutex, so exactly once per location). [dummy] fills unclaimed page
    slots; it must be physically distinct from every cell [make] returns
    and is never returned by [get]. *)

val get : 'a t -> int -> 'a
(** The cell of a location, created on first use. Thread-safe;
    lock-free once the cell exists and its page is in the directory. *)

val length : 'a t -> int
(** Cells created so far. *)

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
(** Folds over every created cell, in no particular order, holding the
    internal mutex: [f] must not call [get] on the same table. *)

val overflow_pages : 'a t -> int
(** Pages currently held in the overflow map, whose lookups take the
    mutex. *)

val words : 'a t -> int
(** Live words of the table's own structure — directory, pages and
    overflow map — excluding the cells themselves. *)
