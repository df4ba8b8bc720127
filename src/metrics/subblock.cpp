#include "metrics/subblock.hpp"

#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace logstruct::metrics {

BlockGaps block_gaps(const trace::Trace& trace, int threads) {
  BlockGaps out;
  out.gap.assign(static_cast<std::size_t>(trace.num_events()), 0);
  out.tail.resize(static_cast<std::size_t>(trace.num_blocks()));
  util::parallel_for(threads, trace.num_blocks(), [&](std::int64_t b) {
    const auto id = static_cast<trace::BlockId>(b);
    const trace::SerialBlock blk = trace.block(id);
    const auto bev = trace.events_of_block(id);
    if (bev.empty()) return;
    trace::TimeNs prev = blk.begin;
    for (trace::EventId e : bev) {
      const trace::TimeNs t = trace.event_time(e);
      out.gap[static_cast<std::size_t>(e)] = t - prev;
      prev = t;
    }
    out.tail[static_cast<std::size_t>(b)] = {bev.back(), blk.end - prev};
  });
  return out;
}

std::vector<trace::TimeNs> subblock_durations(const trace::Trace& trace) {
  OBS_SPAN_ANON("metrics/subblock_durations");
  BlockGaps g = block_gaps(trace, 1);
  for (trace::BlockId b = 0; b < trace.num_blocks(); ++b) {
    const BlockGaps::Tail tail = g.tail[static_cast<std::size_t>(b)];
    if (tail.span <= 0) continue;
    const trace::EventId trigger = trace.block(b).trigger;
    const trace::EventId owner = trigger != trace::kNone ? trigger : tail.last;
    g.gap[static_cast<std::size_t>(owner)] += tail.span;
  }
  return std::move(g.gap);
}

}  // namespace logstruct::metrics
