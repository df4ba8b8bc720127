#pragma once

/// \file subblock.hpp
/// Sub-block decomposition of serial blocks (paper §4, Fig. 13): the
/// frame every metric kernel reads, built once per trace by
/// Trace::subblock_frame().
///
/// Dependency events divide each serial block into event-delimited units
/// of computation: the sub-block of event e spans from the previous event
/// in the block (or the block's begin) to e. Any leftover duration after
/// the last event goes to the block-starting event when one was recorded,
/// otherwise to the last event.

#include <cstdint>
#include <vector>

#include "trace/ids.hpp"

namespace logstruct::trace {

struct SubblockFrame {
  /// role bits: the event is its block's last event; the event owns its
  /// block's tail (the trigger when it lies in the block, else the last
  /// event), set only when the tail is positive and so in its duration.
  static constexpr std::uint8_t kLast = 1;
  static constexpr std::uint8_t kOwner = 2;

  /// Per event: its gap (time since the previous event in its block, or
  /// since the block's begin), plus its block's tail if it owns it. 0 for
  /// events without a block.
  std::vector<TimeNs> duration;
  /// Per block: the span after its last event, to the block's end; 0 for
  /// event-less blocks.
  std::vector<TimeNs> tail;
  /// Per event: its kLast / kOwner bits. A block's last event and tail
  /// owner live here, one byte per event, instead of as two ids per block.
  std::vector<std::uint8_t> role;

  /// Event e's plain gap: its duration without the tail it owns. `block`
  /// is e's block.
  [[nodiscard]] TimeNs gap(EventId e, BlockId block) const {
    const auto ez = static_cast<std::size_t>(e);
    return role[ez] & kOwner
               ? duration[ez] - tail[static_cast<std::size_t>(block)]
               : duration[ez];
  }
  /// The span after e: its block's tail if e is the block's last event,
  /// else 0. `block` is e's block.
  [[nodiscard]] TimeNs tail_after(EventId e, BlockId block) const {
    return role[static_cast<std::size_t>(e)] & kLast
               ? tail[static_cast<std::size_t>(block)]
               : 0;
  }
};

}  // namespace logstruct::trace
