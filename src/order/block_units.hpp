#pragma once

/// \file block_units.hpp
/// Serial-block units shared by the pipeline stages.
///
/// A *unit* is a serial block after SDAG absorption (§2.1): the group of
/// executions the developer wrote as one serial. Initial partitioning
/// splits units at app/runtime boundaries; the repair merge restores
/// same-unit connections; step assignment orders whole units per chare.

#include <cstdint>
#include <span>
#include <vector>

#include "trace/trace.hpp"

namespace logstruct::order {

struct BlockUnits {
  /// block -> representative block (identity when absorption is off).
  std::vector<trace::BlockId> rep;
  /// CSR rows over blocks: representative block r's unit is
  /// flat[begin[r], begin[r + 1]), in Trace::before order. Empty for
  /// non-representative and event-less blocks.
  std::vector<std::int32_t> begin;
  std::vector<trace::EventId> flat;
  /// event -> representative block of its unit.
  std::vector<trace::BlockId> unit_of_event;

  /// The events of the unit represented by block r.
  [[nodiscard]] std::span<const trace::EventId> events(trace::BlockId r) const {
    const auto i = static_cast<std::size_t>(r);
    return {flat.data() + begin[i], flat.data() + begin[i + 1]};
  }
  [[nodiscard]] trace::BlockId num_blocks() const {
    return static_cast<trace::BlockId>(rep.size());
  }
};

/// The units of `rep` (block -> representative block): one scan of the
/// event column maps every event to rep[its block], and one counting
/// scatter of `by_time` (Trace::events_by_time()) fills the rows, so
/// each comes out in Trace::before order without a comparison.
BlockUnits compute_block_units(const trace::Trace& trace,
                               std::vector<trace::BlockId> rep,
                               std::span<const trace::EventId> by_time);

}  // namespace logstruct::order
