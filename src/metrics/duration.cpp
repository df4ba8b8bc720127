#include "metrics/duration.hpp"

#include <algorithm>
#include <limits>

#include "metrics/step_slots.hpp"
#include "obs/obs.hpp"
#include "trace/subblock.hpp"
#include "util/thread_pool.hpp"

namespace logstruct::metrics {

DifferentialDuration differential_duration(
    const trace::Trace& trace, const order::LogicalStructure& ls,
    int threads) {
  OBS_SPAN_ANON("metrics/differential_duration");
  DifferentialDuration out;
  out.degraded_phases = ls.phases.degraded_phases;
  out.per_event.assign(static_cast<std::size_t>(trace.num_events()), 0);
  const std::vector<trace::TimeNs>& dur = trace.subblock_frame().duration;

  // (phase, step) -> fastest sub-block duration.
  const StepSlots slot(ls, /*by_phase=*/true);
  std::vector<trace::TimeNs> fastest(
      slot.size(), std::numeric_limits<trace::TimeNs>::max());
  for (trace::EventId e = 0; e < trace.num_events(); ++e) {
    trace::TimeNs& f = fastest[slot(e)];
    f = std::min(f, dur[static_cast<std::size_t>(e)]);
  }
  // Chunked max reduction over a grid that depends only on the trace
  // size; partials combine in chunk order, so any thread count — serial
  // included — keeps the first-event-wins tie-break bit-identical.
  const std::int64_t n = trace.num_events();
  const std::int64_t chunks = (n + 4095) / 4096;
  std::vector<trace::TimeNs> part_max(static_cast<std::size_t>(chunks), 0);
  std::vector<trace::EventId> part_event(static_cast<std::size_t>(chunks),
                                         trace::kNone);
  util::parallel_for(threads, chunks, [&](std::int64_t c) {
    const std::int64_t lo = n * c / chunks;
    const std::int64_t hi = n * (c + 1) / chunks;
    for (std::int64_t i = lo; i < hi; ++i) {
      const auto e = static_cast<trace::EventId>(i);
      trace::TimeNs excess =
          dur[static_cast<std::size_t>(e)] - fastest[slot(e)];
      out.per_event[static_cast<std::size_t>(e)] = excess;
      if (excess > part_max[static_cast<std::size_t>(c)]) {
        part_max[static_cast<std::size_t>(c)] = excess;
        part_event[static_cast<std::size_t>(c)] = e;
      }
    }
  });
  for (std::int64_t c = 0; c < chunks; ++c) {
    if (part_max[static_cast<std::size_t>(c)] > out.max_value) {
      out.max_value = part_max[static_cast<std::size_t>(c)];
      out.max_event = part_event[static_cast<std::size_t>(c)];
    }
  }
  return out;
}

}  // namespace logstruct::metrics
