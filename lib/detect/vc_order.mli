(** Vector-clock determinacy detector — the async-finish algorithm of
    Kumar & Agrawal (arXiv 2112.04352) mapped onto structured futures.

    Each task owns a slot in a grow-on-demand integer clock; every
    state-producing event publishes a fresh immutable snapshot with the
    owner's component bumped, so [Precedes] is exact dag reachability:

    - {b spawn/create} (async): the child inherits the parent's snapshot
      plus its own slot at its first tick; the continuation self-ticks.
    - {b sync} (finish): pointwise max over the joined children's final
      snapshots, then a self-tick. The children's slots are recycled
      through a pool that travels with the strand state — reuse is
      happens-after the freeing sync by construction, and a reused slot
      resumes past its previous incarnation's ticks, so old and new
      incarnations can never be conflated (the paper's task-id-reuse
      idea, restated for this event vocabulary).
    - {b get}: join with the put node's snapshot, then self-tick. Future
      slots are never recycled, since a get can happen arbitrarily late.
    - [created_firsts] at a sync fake-join in the pseudo-SP-dag only and
      carry no happens-before edge; the clocks ignore them.

    Against the O(1)-amortized-query SF-Order this is the classic
    space/query trade: O(live tasks + futures) words per strand snapshot
    and O(1) queries with no order-maintenance structure at all — which
    makes it an independent, far-cheaper-than-naive oracle for
    differential tests and the chaos shrinker at large DAG sizes.

    Race checks share {!Access_history} (Keep_all policy) and {!Race}
    attribution with SF-Order; under a serial execution the reports,
    query totals, and reader high-water marks are byte-identical to
    [Sf_order.make]'s. Counters: [vc.query.same_task] / [vc.query.clock]
    partition [queries ()]; [vc.clock.alloc_words], [vc.slots.fresh],
    [vc.slots.reused] track clock churn. *)

val make : ?history:Access_history.sync_mode -> unit -> Detector.t
(** [history] (default [`Lockfree]) configures the shared access history
    exactly as in {!Sf_order.make}. Parallel-capable
    ([supports_parallel = true]). *)

val strand_task : Sfr_runtime.Events.state -> int
(** The clock slot owned by this strand's task (tests). *)
