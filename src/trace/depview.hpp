#pragma once

/// \file depview.hpp
/// Reverse view over the trace's frozen dependency table: for each
/// receiving event, the span of events it depends on (its matching send,
/// fan-out origin, or every send of its collective). Built in
/// O(events + dependencies) straight off the SoA columns — one counting
/// scatter into a CSR, no per-event allocation.

#include <cstdint>
#include <span>
#include <vector>

#include "trace/trace.hpp"
#include "util/csr.hpp"

namespace logstruct::trace {

class IncomingDeps {
 public:
  explicit IncomingDeps(const Trace& trace) {
    util::csr_scatter(
        static_cast<std::size_t>(trace.num_events()),
        [&](auto emit) {
          trace.for_each_dependency(
              [&](EventId send, EventId recv) { emit(recv, send); });
        },
        begin_, senders_);
  }

  /// Events `recv` depends on, in dependency-row order; empty for sends
  /// and dependency-free events.
  [[nodiscard]] std::span<const EventId> senders(EventId recv) const {
    const auto b = static_cast<std::size_t>(
        begin_[static_cast<std::size_t>(recv)]);
    const auto e = static_cast<std::size_t>(
        begin_[static_cast<std::size_t>(recv) + 1]);
    return std::span<const EventId>(senders_).subspan(b, e - b);
  }

  /// The dependency that gated `recv`: the last-arriving sender
  /// (ties broken toward the smaller event id), or kNone.
  [[nodiscard]] EventId binding_sender(const Trace& trace,
                                       EventId recv) const {
    EventId best = kNone;
    TimeNs best_time = 0;
    for (EventId s : senders(recv)) {
      const TimeNs ts = trace.event_time(s);
      if (best == kNone || ts > best_time) {
        best = s;
        best_time = ts;
      }
    }
    return best;
  }

  /// Heap bytes held by the view.
  [[nodiscard]] std::int64_t memory_bytes() const {
    return static_cast<std::int64_t>(begin_.capacity() * sizeof(begin_[0]) +
                                     senders_.capacity() * sizeof(EventId));
  }

 private:
  std::vector<std::int32_t> begin_;
  std::vector<EventId> senders_;
};

}  // namespace logstruct::trace
