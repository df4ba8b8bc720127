#pragma once

/// \file options.hpp
/// Configuration of the logical-structure pipeline.
///
/// Every heuristic of the paper is individually switchable so the ablation
/// experiments (notably Fig. 17: structure computed *without* the §3.1.4
/// inference and merging) run through the same code path.

namespace logstruct::order {

struct PartitionOptions {
  /// §3.1.1: split serial blocks where dependencies cross the
  /// application/runtime boundary.
  bool split_app_runtime = true;

  /// §2.1: absorb `when`-triggered entry executions into their serial and
  /// add serial-n -> serial-(n+1) happened-before edges.
  bool sdag_inference = true;

  /// §3.1.3 (Algorithm 2): restore merges broken by the app/runtime split.
  bool repair_serial_blocks = true;

  /// §3.1.3, second rule: merge partitions of neighboring serials entered
  /// by the same multi-chare group.
  bool neighbor_serial_merge = true;

  /// §3.1.4 (Algorithm 3): order partition-initial source events per chare
  /// by physical time and add the implied happened-before edges.
  bool infer_source_order = true;

  /// §3.1.4 (Algorithm 4): merge same-kind partitions that overlap in
  /// chares at the same leap. When disabled, overlapping partitions are
  /// forced into sequence with physical-time edges instead (the Fig. 17
  /// ablation).
  bool leap_merge = true;

  /// Message-passing model: per-process physical-time order implies
  /// happened-before (§3.4). Enable for MPI traces; Charm++ traces must
  /// not assume it.
  bool process_order_edges = false;

  /// With process_order_edges: treat the order of RECEIVES on a process
  /// as a control dependency too. The paper notes this Isaacs'13
  /// assumption "is not always true, e.g., Figure 10" — its reordering
  /// model (§3.2.1) lets receives replay earlier, so the relaxed edges
  /// (false) only make each send depend on the receives and send that
  /// physically preceded it.
  bool strict_receive_order = true;

  /// Debug: run per-pass invariant checks (DAG-ness, event coverage,
  /// properties 1-2) after every pipeline pass; O(V+E) per pass. Also
  /// forced on by the LOGSTRUCT_CHECK_PASSES environment variable.
  bool check_passes = false;
};

struct StepOptions {
  /// §3.2.1: reorder serial blocks by idealized replay (w clock). False =
  /// per-chare physical-time order (the Fig. 8a / Fig. 10a comparisons).
  bool reorder = true;

  /// Message-passing variant of the w clock: sends are pinned after the
  /// receives that physically preceded them; only receives reorder.
  bool mpi_mode = false;
};

struct Options {
  PartitionOptions partition;
  StepOptions step;

  /// Worker threads for the whole pipeline (initial partitioning, merge
  /// passes, step assignment, w clock). 0 = follow the process-wide
  /// default set by the --threads flag (util::default_parallelism()),
  /// which itself defaults to 1 — so the library stays serial unless
  /// somebody opts in. Results are bit-identical for any value.
  int threads = 0;

  /// Degraded-input policy. A trace repaired by fault-tolerant ingestion
  /// (trace::repair / a recovering reader) carries degraded chares —
  /// chares whose dependencies were altered to make the salvage
  /// well-formed. true (default): quarantine — the pipeline runs
  /// normally, but phases touching a degraded chare are flagged
  /// (PhaseResult::degraded) and counted in the `order/degraded_phases`
  /// obs counter so consumers know which regions rest on repaired data.
  /// false: refuse — LS_CHECK-abort when handed a degraded trace, for
  /// pipelines that must never silently analyze repaired input.
  bool allow_degraded = true;

  /// Debug: run the vector-clock causality oracle after stepping (the
  /// "check_causality" pass, order/causality.hpp) and abort with exact
  /// event/edge provenance if any dependency row, intra-block pair, or
  /// phase-DAG edge of the recovered structure contradicts
  /// happened-before. O(V + E) plus the clock sweep. Also forced on by
  /// the LOGSTRUCT_CHECK_CAUSALITY environment variable (the ASan/TSan
  /// CI jobs set it). Edges touching degraded phases are quarantined,
  /// not judged. See docs/CAUSALITY.md.
  bool check_causality = false;

  /// Resolve the pipeline thread count to a concrete value >= 1; the
  /// implementation is in options.cpp (needs util/thread_pool.hpp,
  /// which this header deliberately does not pull in).
  [[nodiscard]] int effective_threads() const;

  /// Charm++ trace defaults (the paper's main configuration).
  static Options charm() { return Options{}; }

  /// Charm++ without the §3.1.4 inference/merging (paper Fig. 17).
  static Options charm_no_inference() {
    Options o;
    o.partition.infer_source_order = false;
    o.partition.leap_merge = false;
    return o;
  }

  /// Physical-time ordering of serial blocks (paper Fig. 8a).
  static Options charm_no_reorder() {
    Options o;
    o.step.reorder = false;
    return o;
  }

  /// MPI traces with reordering (paper Fig. 10b): receives are free to
  /// replay earlier, so their physical order is not a dependency.
  static Options mpi() {
    Options o;
    o.partition.split_app_runtime = false;   // no runtime chares
    o.partition.sdag_inference = false;
    o.partition.neighbor_serial_merge = false;
    o.partition.process_order_edges = true;
    o.partition.strict_receive_order = false;
    o.step.mpi_mode = true;
    return o;
  }

  /// MPI organization of Isaacs et al. [13] as used in the paper's
  /// Fig. 10a / Fig. 16a / Fig. 20(a,c): strict per-process
  /// happened-before and stepping without reordering.
  static Options mpi_baseline13() {
    Options o = mpi();
    o.partition.strict_receive_order = true;
    o.step.reorder = false;
    return o;
  }
};

}  // namespace logstruct::order
