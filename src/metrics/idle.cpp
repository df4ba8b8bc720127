#include "metrics/idle.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "trace/depview.hpp"

namespace logstruct::metrics {

IdleExperienced idle_experienced(const trace::Trace& trace) {
  OBS_SPAN_ANON("metrics/idle_experienced");
  IdleExperienced out;
  out.per_event.assign(static_cast<std::size_t>(trace.num_events()), 0);
  out.per_block.assign(static_cast<std::size_t>(trace.num_blocks()), 0);

  // When a block's trigger started: the time of its gating dependency per
  // the frozen table — matching send, fan-out origin, or the last send of
  // its collective (previously collective triggers stopped the walk).
  const trace::IncomingDeps& deps = trace.incoming_deps();
  auto trigger_time = [&](const trace::SerialBlock& blk) -> trace::TimeNs {
    if (blk.trigger == trace::kNone) return -1;
    trace::EventId s = deps.binding_sender(trace, blk.trigger);
    return s == trace::kNone ? -1 : trace.event_time(s);
  };

  for (const trace::IdleSpan& span : trace.idles()) {
    const trace::TimeNs length = span.end - span.begin;
    auto blocks = trace.blocks_of_proc(span.proc);
    // First block beginning at or after the idle's end.
    auto it = std::lower_bound(
        blocks.begin(), blocks.end(), span.end,
        [&trace](trace::BlockId b, trace::TimeNs t) {
          return trace.block(b).begin < t;
        });
    for (bool first = true; it != blocks.end(); ++it, first = false) {
      // The block directly after the idle always experiences it. Later
      // blocks do only if their dependency started before the idle ended
      // (they could have been running); a dependency on an event after the
      // idle, or an unknown one, stops the walk.
      if (!first) {
        const trace::TimeNs dep = trigger_time(trace.block(*it));
        if (dep < 0 || dep >= span.end) break;
      }
      out.per_block[static_cast<std::size_t>(*it)] += length;
      const auto bev = trace.events_of_block(*it);
      if (!bev.empty())
        out.per_event[static_cast<std::size_t>(bev.front())] += length;
    }
  }
  return out;
}

}  // namespace logstruct::metrics
