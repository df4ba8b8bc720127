#pragma once

/// \file block_units.hpp
/// Per-event rows and serial-block rows shared by the pipeline stages.
///
/// Partitioning (§3.1) works on raw serial blocks: initial partitioning
/// splits each block at app/runtime boundaries and the repair merge
/// restores same-block connections. Step assignment (§3.2) orders
/// *units*: a serial block after SDAG absorption (§2.1), the group of
/// executions the developer wrote as one serial. A unit is keyed by its
/// representative block (OrderContext::unit_of_block()), so it needs no
/// rows of its own.

#include <cstdint>
#include <span>
#include <vector>

#include "trace/trace.hpp"

namespace logstruct::order {

/// The event fields the order passes read, one flat row per field, from
/// one scan of the event column (plus the collective membership lists):
/// the passes read these rows instead of Trace::event(), which pays a
/// block-cache lookup per call on the blocked backend.
struct EventRows {
  std::vector<trace::ChareId> chare;
  std::vector<trace::EventKind> kind;
  std::vector<trace::EventId> partner;
  std::vector<trace::BlockId> block;
  /// Index of the collective the event is a member of (as a send or a
  /// receive), -1 for none.
  std::vector<std::int32_t> collective;
};
EventRows event_rows(const trace::Trace& trace);

/// Each serial block's events in Trace::before order, as CSR rows over
/// blocks: block b's events are flat[begin[b], begin[b + 1])
/// (OrderContext::units()).
struct BlockUnits {
  std::vector<std::int32_t> begin;
  std::vector<trace::EventId> flat;

  /// The events of block b.
  [[nodiscard]] std::span<const trace::EventId> events(trace::BlockId b) const {
    const auto i = static_cast<std::size_t>(b);
    return {flat.data() + begin[i], flat.data() + begin[i + 1]};
  }
  [[nodiscard]] trace::BlockId num_blocks() const {
    return static_cast<trace::BlockId>(begin.size() - 1);
  }
};

}  // namespace logstruct::order
