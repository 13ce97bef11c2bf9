(** Growable bitsets over dense small-integer universes.

    [gp(v)] (and [cp(G)] in a deep nest) in SF-Order are sets of future
    IDs. Future IDs are dense small integers, so the paper represents
    these sets as arrays of 64-bit words with one bit per future
    (Section 4, "Implementation Overview"). This module is that representation: an array of OCaml
    native ints (63 usable bits per word).

    The array is a window: it covers words [[lo, hi]] only, so a set whose
    members are all large IDs does not pay for the words below them. The
    cardinality is cached, so {!cardinal} is O(1). Sets built by
    {!with_added} and {!union} get the exact window their members span. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh empty set. [capacity] is a hint in elements, not words. *)

val singleton : int -> t

val mem : t -> int -> bool
(** [mem s i] is whether [i] is in [s]: one bounds check and one word
    probe, no allocation. Outside the window is [false]. *)

val add : t -> int -> unit
(** [add s i] inserts [i], growing the window as needed (doubling it, so
    a run of adds is amortized O(1) each). *)

val remove : t -> int -> unit

val cardinal : t -> int
(** Population count. O(1): cached. *)

val is_empty : t -> bool

val union_into : dst:t -> t -> unit
(** [union_into ~dst src] sets [dst := dst ∪ src]. *)

val copy : t -> t

val with_added : t -> int -> t
(** [with_added s i] is a fresh set equal to [s ∪ {i}]; [s] is left
    unchanged. Its window is exactly the hull of [s]'s window and [i]'s
    word. *)

val union : t list -> t
(** A fresh set equal to the union of the inputs, whose window is exactly
    the hull of the nonempty inputs' windows; the inputs are unchanged. *)

val subset : t -> t -> bool
(** [subset a b] is whether [a ⊆ b]. *)

val equal : t -> t -> bool

val each_side_has_private_bit : t -> t -> bool
(** [each_side_has_private_bit a b] is true iff [a] has a bit not in [b]
    AND [b] has a bit not in [a] — the condition under which SF-Order's
    [gp] maintenance must allocate a fresh merged table rather than alias
    one of its parents' tables (Section 3.4). *)

val popcount_word : int -> int
(** Constant-time SWAR population count of one machine word's bit
    pattern (sign bit included) — the kernel behind {!cardinal} and the
    lowest-set-bit {!iter}; exposed for property testing against a
    bit-probing reference. *)

(** [iter f s] applies [f] to every member in ascending order, by
    O(cardinal) lowest-set-bit extraction rather than per-bit probing. *)
val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val elements : t -> int list
(** Ascending order. *)

val words : t -> int
(** Number of machine words in the window, for memory accounting. *)

val window : t -> int * int
(** [(lo, hi)]: the first and last word indices the window covers
    ([hi < lo] when it covers none). For tests. *)

val pp : Format.formatter -> t -> unit
