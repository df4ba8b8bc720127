#include "metrics/imbalance.hpp"

#include <algorithm>
#include <limits>

#include "obs/obs.hpp"
#include "trace/subblock.hpp"
#include "util/thread_pool.hpp"

namespace logstruct::metrics {

Imbalance imbalance(const trace::Trace& trace,
                    const order::LogicalStructure& ls, int threads) {
  OBS_SPAN_ANON("metrics/imbalance");
  Imbalance out;
  out.degraded_phases = ls.phases.degraded_phases;
  const std::size_t phases =
      static_cast<std::size_t>(ls.num_phases());
  const std::size_t procs = static_cast<std::size_t>(trace.num_procs());
  const std::vector<trace::TimeNs>& dur = trace.subblock_frame().duration;

  std::vector<std::vector<trace::TimeNs>> load(
      phases, std::vector<trace::TimeNs>(procs, -1));
  for (trace::EventId e = 0; e < trace.num_events(); ++e) {
    auto ph = static_cast<std::size_t>(
        ls.phases.phase_of_event[static_cast<std::size_t>(e)]);
    auto pr = static_cast<std::size_t>(trace.event(e).proc);
    if (load[ph][pr] < 0) load[ph][pr] = 0;
    load[ph][pr] += dur[static_cast<std::size_t>(e)];
  }

  // Each phase owns its per_phase / per_phase_proc slots, so the spread
  // computation fans out over phases race-free.
  out.per_phase.assign(phases, 0);
  out.per_phase_proc.assign(phases, std::vector<trace::TimeNs>(procs, -1));
  util::parallel_for(threads, static_cast<std::int64_t>(phases),
                     [&](std::int64_t p) {
    const auto ph = static_cast<std::size_t>(p);
    trace::TimeNs lo = std::numeric_limits<trace::TimeNs>::max();
    trace::TimeNs hi = std::numeric_limits<trace::TimeNs>::min();
    for (std::size_t pr = 0; pr < procs; ++pr) {
      if (load[ph][pr] < 0) continue;  // proc absent from the phase
      lo = std::min(lo, load[ph][pr]);
      hi = std::max(hi, load[ph][pr]);
    }
    if (hi < lo) return;  // empty phase cannot occur, but be safe
    out.per_phase[ph] = hi - lo;
    for (std::size_t pr = 0; pr < procs; ++pr) {
      if (load[ph][pr] >= 0) out.per_phase_proc[ph][pr] = load[ph][pr] - lo;
    }
  });

  // Pure per-event read of the finished tables — index-owned writes.
  out.per_event.assign(static_cast<std::size_t>(trace.num_events()), 0);
  util::parallel_for(threads, trace.num_events(), [&](std::int64_t i) {
    const auto e = static_cast<trace::EventId>(i);
    auto ph = static_cast<std::size_t>(
        ls.phases.phase_of_event[static_cast<std::size_t>(e)]);
    auto pr = static_cast<std::size_t>(trace.event(e).proc);
    out.per_event[static_cast<std::size_t>(e)] =
        std::max<trace::TimeNs>(out.per_phase_proc[ph][pr], 0);
  });
  return out;
}

}  // namespace logstruct::metrics
