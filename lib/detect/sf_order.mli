(** SF-Order — the paper's contribution: a parallel on-the-fly determinacy
    race detector for programs with structured futures.

    Reachability (Algorithm 1, Section 3.2) combines three structures:

    + WSP-Order English/Hebrew order maintenance over the pseudo-SP-dag
      ({!Sfr_reach.Sp_order}), answering [u ↠ v] in O(1);
    + [cp(G)] — per-future set of future ancestors: an ancestor chain
      indexed by depth, or a bitmap where that is smaller
      ({!Sfr_reach.Cp_store});
    + [gp(v)] — per-strand bitmap of futures whose last node NSP-precedes
      [v], covering only the words its members span
      ({!Sfr_reach.Fp_sets}).

    A query [Precedes(u, v)] for a previous accessor [u ∈ F] against the
    current strand [v ∈ G]:

    - [F = G]: answer [u ↠ v]                                  (Lemma 3.7)
    - [F ∈ cp(G)]: answer [u ↠ v]                        (Lemmas 3.8, 3.9)
    - otherwise: answer [F ∈ gp(v)]                            (Lemma 3.4)

    All three cases are O(1) and allocate nothing: [F ∈ cp(G)] is one
    array probe at [F]'s depth (strand states carry their future's
    depth) or one word probe. Total reachability-maintenance work is
    O(T1 + k²) (Lemma 3.12).

    Options mirror the paper's design space:
    - [readers]: [`All] stores every reader between writes (what the
      paper's own implementation does, Section 4); [`Two_per_future]
      stores only the leftmost/rightmost reader per future — the 2k bound
      of Lemmas 3.10/3.11.
    - [sets]: the [gp] representation — [`Bitmap] (the paper's arrays
      of 64-bit words) or [`Hashed] (hash tables, for the ablation against
      F-Order's representation). [cp] uses the same store either way.
    - [history]: access-history synchronization — [`Lockfree] (the
      redesigned low-synchronization history the paper's conclusion asks
      for; see {!Access_history}), [`Mutex] (the paper's fine-grained
      locks), or [`Unsynchronized] (serial runs only; isolates the
      locking overhead the paper discusses). All three share one paged
      location table and differ only in how a cell is synchronized. The
      default is [`Lockfree] for [`All] readers, where it measured
      fastest end to end, and [`Mutex] for [`Two_per_future], whose
      leftmost/rightmost reader update [`Lockfree] cannot hold.

    [cp(G)] lives in a chunked vector read without a lock: O(1)
    amortized per create and O(k) container words over k creates; each
    entry costs O(min(depth, k/w)) words. *)

val make :
  ?readers:[ `All | `Two_per_future ] ->
  ?sets:[ `Bitmap | `Hashed ] ->
  ?history:Access_history.sync_mode ->
  unit ->
  Detector.t
(** Defaults: [`All] readers, [`Bitmap] sets, [`Lockfree] history
    ([`Mutex] with [`Two_per_future] readers).
    @raise Detect_error.Error for [`Lockfree] with [`Two_per_future]. *)

val make_with_precedes :
  ?readers:[ `All | `Two_per_future ] ->
  ?sets:[ `Bitmap | `Hashed ] ->
  ?history:Access_history.sync_mode ->
  unit ->
  Detector.t * (Sfr_runtime.Events.state -> Sfr_runtime.Events.state -> bool)
(** The detector plus its raw [Precedes] query over strand states (for
    reachability differential tests and power users); valid during and
    after the execution. *)
