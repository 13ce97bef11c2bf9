(** Regeneration of the paper's evaluation tables and figures.

    Each function prints one table to stdout in the paper's layout, using
    measured one-core times and simulated multi-worker times (see
    {!Runner}). The [ablation_*] tables back the design-choice
    discussions in the paper's Section 4 (locking cost, bitmap vs hash
    representation, reader-bound policy). *)

val fig3 : scale:Sfr_workloads.Workload.scale -> unit
(** Benchmark characteristics: reads, writes, queries, futures, nodes —
    measured at [scale], with the paper's published values alongside. *)

val fig4 : scale:Sfr_workloads.Workload.scale -> repeats:int -> workers:int -> unit
(** Execution times: base / reach / full × detectors × {T1, T_workers}. *)

val fig5 : scale:Sfr_workloads.Workload.scale -> unit
(** Reachability-structure memory: F-Order vs SF-Order. *)

val sweep : scale:Sfr_workloads.Workload.scale -> repeats:int -> unit
(** Simulated-time curves for P ∈ {1,2,4,8,12,16,20,32} per benchmark
    and configuration — the scalability "figure" behind Figure 4's
    bracketed columns. *)

val motivation : scale:Sfr_workloads.Workload.scale -> unit
(** The introduction's motivating comparison (via Singer et al.): the
    Smith-Waterman wavefront with structured futures vs plain fork-join
    barriers — same work, lower span, better simulated scalability. *)

val complexity : unit -> unit
(** Empirical validation of Lemma 3.12: reachability construction is
    O(T1 + k²). Two adversarial programs scale k — a get chain (quadratic
    [gp] growth) and a create nest (quadratic [cp] growth) — and the
    per-k² normalized table memory stays flat. *)

val ablation_locks : scale:Sfr_workloads.Workload.scale -> repeats:int -> unit

val ablation_history : scale:Sfr_workloads.Workload.scale -> repeats:int -> unit
(** The paper-conclusion extension: mutex-striped vs lock-free vs
    unsynchronized access histories under full SF-Order detection. *)

val ablation_sets : scale:Sfr_workloads.Workload.scale -> repeats:int -> unit
val ablation_readers : scale:Sfr_workloads.Workload.scale -> repeats:int -> unit

val scaling :
  scale:Sfr_workloads.Workload.scale ->
  repeats:int ->
  domains:int list ->
  out:string ->
  unit
(** Measured (not simulated) multicore runs: every workload × {reach,
    full} SF-Order configuration on the work-stealing executor for each
    domain count in [domains], written to [out] as a {!Bench_schema} v2
    file whose detector keys are ["sf-order-<config>@d<domains>"]. The
    printed table adds speedup vs the first domain count and the
    synchronization counters the hot-path optimizations target
    ([history.lock.contended], [history.cas.retry], [om.relabels] and
    [reach.table.alloc_words]). Wall-clock speedup needs as many
    hardware cores as domains; the counters are meaningful regardless. *)

val profile :
  scale:Sfr_workloads.Workload.scale ->
  repeats:int ->
  out:string ->
  unit
(** Run full detection for every workload × detector configuration and
    write a {!Bench_schema} v2 result file to [out]: environment block,
    median/MAD over the measured repeats (one warmup excluded), and each
    run's {!Sfr_obs.Metrics} snapshot — including the [prof.*.ns] latency
    histograms, since profiling is enabled for the duration, and [gc.*]
    allocation deltas. The cross-commit trajectory artifact behind
    [bench profile] and the input format of [bench perfdiff]. Also prints
    a summary table. *)
