#pragma once

/// \file efficiency.hpp
/// Time-resolved POP-style efficiency metrics over sliced windows.
///
/// The paper's payoff is that recovered logical structure (phases/steps)
/// attributes performance sharper than wall-clock slicing; this suite
/// makes that measurable. It computes, per window of a WindowSet
/// (fixed-width time bins or recovered phases), five ratios:
///
///   parallel efficiency       busy_avg / span
///   load balance              busy_avg / busy_max
///   communication efficiency  busy_max / span
///   serialization efficiency  busy_max / ideal_span
///   transfer efficiency       ideal_span / span
///
/// where busy is per-processor sub-block compute inside the window,
/// span the window's wall-clock extent, and ideal_span the window's
/// longest dependency chain of compute under a zero-latency network
/// (the POP "ideal network" replay). The identities
/// parallel = balance x communication and communication =
/// serialization x transfer hold exactly (before clamping to [0, 1]).
/// Definitions, edge cases, and the export schema are documented in
/// docs/METRICS.md.
///
/// The suite runs on the shared work-stealing pool with index-owned
/// writes and fixed-order reductions — bit-identical results for any
/// thread count — and carries the window quarantine provenance
/// (degraded_windows) like the per-run metric kernels do.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "metrics/windows.hpp"
#include "order/stepping.hpp"
#include "trace/trace.hpp"

namespace logstruct::util {
class Flags;
}

namespace logstruct::metrics {

/// Shared per-window precompute the five ratios read: per-processor
/// busy time, dependency (message) counts and latency sums, and the
/// zero-latency replay span. Computed once per WindowSet.
struct WindowLoads {
  std::int32_t num_procs = 0;

  /// Busy (sub-block compute) ns, flattened [window * num_procs + proc].
  std::vector<trace::TimeNs> busy;
  /// Processors with at least one event in the window.
  std::vector<std::int32_t> procs_active;
  /// Events per window.
  std::vector<std::int32_t> events;
  /// Dependency rows whose receive lands in the window.
  std::vector<std::int64_t> messages;
  /// Sum over those rows of max(0, recv time - send time).
  std::vector<trace::TimeNs> transfer_wait;
  std::vector<trace::TimeNs> busy_sum;
  std::vector<trace::TimeNs> busy_max;
  /// Longest in-window chain of sub-block compute through block order
  /// and dependency edges with message latencies set to zero.
  std::vector<trace::TimeNs> ideal_span;
};

/// `threads` fans the per-window accumulation out over the shared pool
/// (0 = util::default_parallelism()); windows own disjoint event ranges
/// and every reduction runs in fixed (id) order, so the result is
/// bit-identical for any thread count.
WindowLoads compute_window_loads(const trace::Trace& trace,
                                 const WindowSet& windows, int threads = 0);

/// Summary of one ratio: worst and mean window, computed over non-empty
/// windows only (empty bins report 0 and are excluded).
struct EffSummary {
  double min = 0;
  double mean = 0;
  std::int32_t min_window = -1;
};

/// One ratio per window, with its summary.
struct WindowRatio {
  std::vector<double> per_window;
  EffSummary summary;
};

/// The five ratios over one shared WindowLoads precompute, plus the
/// window metadata the exporters need.
struct EfficiencySuite {
  WindowKind kind = WindowKind::TimeBin;
  trace::TimeNs bin_width_ns = 0;  ///< 0 for phase windows
  std::vector<Window> windows;
  WindowLoads loads;
  WindowRatio parallel;
  WindowRatio balance;
  WindowRatio communication;
  WindowRatio serialization;
  WindowRatio transfer;
  /// Windows quarantined by trace-level recovery (Window::degraded):
  /// ratios there rest on repaired, not observed, dependencies.
  std::int32_t degraded_windows = 0;

  [[nodiscard]] std::int32_t num_windows() const {
    return static_cast<std::int32_t>(windows.size());
  }
};

EfficiencySuite efficiency_suite(const trace::Trace& trace,
                                 const WindowSet& windows, int threads = 0);

/// Serialize suites as a `logstruct-effmetrics/v1` artifact (schema in
/// docs/METRICS.md; validated by `tools/obs_to_table.py --check`).
std::string efficiency_report_json(const trace::Trace& trace,
                                   const std::string& program,
                                   std::span<const EfficiencySuite> suites);

/// Honor the shared `--eff-json` / `--eff-bins` harness flags (defined
/// by util::define_obs_flags): when `--eff-json=<path>` was given, run
/// the suite under both slicings — recovered phases and `--eff-bins`
/// wall-clock bins (0 = one bin per phase) — and write the artifact.
/// No-op (returning true) when the flag is unset; false on write
/// failure, like util::finish_obs.
bool write_efficiency_report(const util::Flags& flags,
                             const trace::Trace& trace,
                             const order::LogicalStructure& ls,
                             const std::string& program);

}  // namespace logstruct::metrics
