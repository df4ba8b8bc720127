#pragma once

/// \file critical_path.hpp
/// Critical-path analysis over the recovered dependency structure.
///
/// A natural extension of the paper's metrics: the longest chain of
/// physical time through the happened-before relation — sub-block compute
/// plus message latencies — bounds how far any optimization of off-path
/// work can go. The path is expressed in the logical structure's terms so
/// each hop has (chare, global step) coordinates.

#include <vector>

#include "order/stepping.hpp"
#include "trace/trace.hpp"

namespace logstruct::metrics {

struct CriticalPath {
  /// Events along the path, earliest first.
  std::vector<trace::EventId> events;
  /// Physical duration covered by the path (compute + latency).
  trace::TimeNs length_ns = 0;
  /// Fraction of the trace's end time the path explains.
  double coverage = 0;
  /// Per-chare share of on-path sub-block time, index = ChareId.
  std::vector<trace::TimeNs> chare_share;
  /// Phases quarantined by trace-level recovery (PhaseResult::degraded):
  /// a path crossing those regions rests on repaired, not observed,
  /// dependencies. 0 for clean traces.
  std::int32_t degraded_phases = 0;
};

/// Longest chain under: (a) an event costs its sub-block duration,
/// (b) a receive additionally costs its message latency (recv time -
/// send time), (c) chain edges are the final per-chare order plus every
/// row of the trace's dependency table — matches, fan-out copies, and
/// collective closures (so the path follows reductions instead of
/// breaking at them). Deterministic tie-breaking.
/// Reads the trace's time order, sub-block frame and dependency view,
/// each built once per trace. The longest-path walk is inherently
/// sequential, so `threads` (kept for the kernels' common signature) has
/// no effect; the result is the same for any count.
CriticalPath critical_path(const trace::Trace& trace,
                           const order::LogicalStructure& ls,
                           int threads = 0);

}  // namespace logstruct::metrics
