#pragma once

/// \file pass.hpp
/// A named pipeline pass over a shared OrderContext.
///
/// Every stage of the extraction pipeline (paper §3.1-§3.2) registers as
/// a Pass with the PassManager instead of being hard-wired into a driver
/// function. A pass declares its name (which becomes its obs span
/// `order/<name>`), whether the current Options enable it, and which
/// structural invariants it promises on exit — the manager verifies those
/// after the pass when invariant checking is on, so regressions surface
/// at the pass boundary rather than at the end of the pipeline.
///
/// Ablations (`mpi_baseline13`, the Fig. 17 no-inference run) are pure
/// pass selections: the same pass list is registered every time and
/// Options decide which passes run. Disabled passes still emit their
/// (near-zero) span so telemetry sidecars always carry the full stage
/// taxonomy.

#include <cstdint>
#include <functional>
#include <string>

namespace logstruct::order {

class OrderContext;

/// Invariants a pass promises on its exit state (bit flags).
enum : unsigned {
  kCheckNone = 0,
  /// The partition graph is acyclic.
  kCheckDag = 1u << 0,
  /// Every trace event belongs to exactly one non-empty partition and
  /// the event→partition index agrees with the partition event lists.
  kCheckCoverage = 1u << 1,
  /// Property 1 (§3.1.4): no leap has two partitions sharing a chare.
  kCheckLeapProperty = 1u << 2,
  /// Property 2 (§3.1.4): each partition's chares are covered by its
  /// direct successors (no chare path escapes).
  kCheckCharePaths = 1u << 3,
};

/// How a pass body uses worker threads. Declarative: the body performs
/// its own fan-out (through util::parallel_for with the thread count
/// resolved from Options), but the capability lets the PassManager
/// record and annotate honest per-pass thread counts without inspecting
/// pass internals.
enum class Parallelism {
  /// Single-threaded body; records threads = 1 regardless of Options.
  kSerial,
  /// Body fans independent work (phases, partitions, events) out over
  /// the shared pool; results are bit-identical for any thread count.
  kPhaseParallel,
};

struct Pass {
  /// Short stage name; the obs span is `order/<name>`.
  std::string name;
  /// The stage body. Runs only when `enabled`.
  std::function<void(OrderContext&)> run;
  /// Options-driven gate; disabled passes still record a span + record.
  bool enabled = true;
  /// kCheck* flags verified after the pass under invariant checking.
  unsigned checks = kCheckNone;
  /// True when the body emits its own obs span (legacy span names kept
  /// by stages like stepping); the manager then skips emitting one.
  bool own_span = false;
  /// Thread-usage capability (see Parallelism).
  Parallelism parallelism = Parallelism::kSerial;
};

/// Per-pass execution record: what ran, how long it took, how much it
/// allocated, how often it went to the block cache, and the partition
/// count afterwards (-1 before the graph exists). Drives
/// PipelineTimings and the BENCH_pipeline.json perf trajectory (schema
/// v2 carries alloc_bytes alongside seconds, v7 the cache deltas).
struct PassRecord {
  std::string name;
  double seconds = 0;
  bool ran = false;
  std::int32_t partitions = -1;
  /// Bytes allocated during the pass — including worker-thread
  /// allocations, which the pool credits back to the executing thread;
  /// 0 when the obs alloc hook is not linked (see obs/memstats.hpp).
  std::int64_t alloc_bytes = 0;
  /// Worker threads the pass was entitled to: Options::effective_threads
  /// for kPhaseParallel passes, 1 for serial ones.
  int threads = 1;
  /// Process-wide block-cache lookups (hits + misses) and misses during
  /// the pass; both 0 on the mem backend, which never reads the cache.
  std::int64_t cache_lookups = 0;
  std::int64_t cache_misses = 0;
};

}  // namespace logstruct::order
