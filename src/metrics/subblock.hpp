#pragma once

/// \file subblock.hpp
/// Sub-block decomposition of serial blocks (paper §4, Fig. 13).
///
/// Dependency events divide each serial block into event-delimited units
/// of computation: the sub-block of event e spans from the previous event
/// in the block (or the block's begin) to e. Any leftover duration after
/// the last event goes to the block-starting event when one was recorded,
/// otherwise to the last event.

#include <vector>

#include "trace/trace.hpp"

namespace logstruct::metrics {

/// The per-block gap walk under both sub-block durations and the critical
/// path: gap[e] spans from the previous event in e's block (or the block's
/// begin) to e; tail[b] is block b's last event and the span after it
/// (kNone and 0 for event-less blocks). Blocks own disjoint slots, so the
/// walk fans out over `threads` race-free.
struct BlockGaps {
  struct Tail {
    trace::EventId last = trace::kNone;
    trace::TimeNs span = 0;
  };
  std::vector<trace::TimeNs> gap;  ///< per event
  std::vector<Tail> tail;          ///< per block
};
BlockGaps block_gaps(const trace::Trace& trace, int threads);

/// Duration of each event's sub-block (0 for events whose block assigns
/// them nothing beyond a zero span).
std::vector<trace::TimeNs> subblock_durations(const trace::Trace& trace);

}  // namespace logstruct::metrics
