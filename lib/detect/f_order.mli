(** F-Order — the parallel general-futures baseline (Xu et al. PPoPP'20;
    see DESIGN.md §5.4 for the substitution note).

    Without the structured-future restrictions, a bit per future is not
    enough: for a previous accessor [u ∈ F] and current strand [v ∈ G]
    with [F ≠ G], F-Order must know {e which} NSP exit points of [F]
    (create nodes, put node) reach [v], and check [u ⪯ w] against each in
    [F]'s series-parallel order. Hence a full hash table per strand
    mapping future ID to exit positions ({!Sfr_reach.Exit_map}) — the
    higher space and time overhead the paper contrasts with SF-Order's
    bitmaps (Figures 4, 5).

    Queries scan the stored exits of the queried future (O(k̂) worst
    case; the original's O(lg k̂) dominance search is not implemented).
    The access history keeps all readers between writes — general futures
    admit no 2k bound (paper Section 3.5). *)

val make : ?history:Access_history.sync_mode -> unit -> Detector.t
(** [history] defaults to [`Lockfree], as in {!Sf_order.make}. *)
