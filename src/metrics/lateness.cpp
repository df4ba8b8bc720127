#include "metrics/lateness.hpp"

#include <algorithm>
#include <limits>

#include "metrics/step_slots.hpp"
#include "obs/obs.hpp"
#include "trace/depview.hpp"
#include "util/thread_pool.hpp"

namespace logstruct::metrics {

namespace {

/// Fixed reduction grid: a function of n alone (never of the thread
/// count), so chunked partials combine identically no matter how many
/// workers computed them — including the serial case.
std::int64_t reduction_chunks(std::int64_t n) {
  return (n + 4095) / 4096;
}

std::int64_t chunk_begin(std::int64_t n, std::int64_t chunks,
                         std::int64_t c) {
  return n * c / chunks;
}

}  // namespace

Lateness lateness(const trace::Trace& trace,
                  const order::LogicalStructure& ls, bool same_phase_only,
                  int threads) {
  OBS_SPAN_ANON("metrics/lateness");
  Lateness out;
  out.degraded_phases = ls.phases.degraded_phases;
  out.per_event.assign(static_cast<std::size_t>(trace.num_events()), 0);

  // Per step (per phase and step with same_phase_only): the earliest
  // event time and the number of peers.
  const StepSlots slot(ls, same_phase_only);
  std::vector<trace::TimeNs> earliest(
      slot.size(), std::numeric_limits<trace::TimeNs>::max());
  std::vector<std::int32_t> peers(slot.size(), 0);
  for (trace::EventId e = 0; e < trace.num_events(); ++e) {
    const std::size_t k = slot(e);
    earliest[k] = std::min(earliest[k], trace.event_time(e));
    ++peers[k];
  }

  // Per-event lateness + reductions over the fixed chunk grid: each
  // chunk owns its per_event slots and partial slot, and the partials
  // combine serially in chunk order — bit-identical for any threads.
  const std::int64_t n = trace.num_events();
  const std::int64_t chunks = reduction_chunks(n);
  struct Partial {
    trace::TimeNs max_value = 0;
    trace::EventId max_event = trace::kNone;
    double sum = 0;
    std::int64_t counted = 0;
  };
  std::vector<Partial> parts(static_cast<std::size_t>(chunks));
  util::parallel_for(threads, chunks, [&](std::int64_t c) {
    Partial& part = parts[static_cast<std::size_t>(c)];
    const std::int64_t lo = chunk_begin(n, chunks, c);
    const std::int64_t hi = chunk_begin(n, chunks, c + 1);
    for (std::int64_t i = lo; i < hi; ++i) {
      const auto e = static_cast<trace::EventId>(i);
      const std::size_t k = slot(e);
      trace::TimeNs late = trace.event(e).time - earliest[k];
      out.per_event[static_cast<std::size_t>(e)] = late;
      if (late > part.max_value) {
        part.max_value = late;
        part.max_event = e;
      }
      if (peers[k] > 1) {
        part.sum += static_cast<double>(late);
        ++part.counted;
      }
    }
  });
  double sum = 0;
  std::int64_t counted = 0;
  for (const Partial& part : parts) {
    if (part.max_value > out.max_value) {
      out.max_value = part.max_value;
      out.max_event = part.max_event;
    }
    sum += part.sum;
    counted += part.counted;
  }
  out.mean = counted ? sum / static_cast<double>(counted) : 0.0;

  // Blame: charge each gated receive's lateness to the chare whose
  // message arrived last (one reverse pass over the dependency table).
  // Finding the binding sender scans each receive's sender list — fan
  // that out (index-owned slots); the scatter into chares stays serial.
  out.caused_by_chare.assign(static_cast<std::size_t>(trace.num_chares()),
                             0);
  const trace::IncomingDeps& deps = trace.incoming_deps();
  std::vector<trace::EventId> binding(
      static_cast<std::size_t>(trace.num_events()), trace::kNone);
  util::parallel_for(threads, n, [&](std::int64_t e) {
    binding[static_cast<std::size_t>(e)] =
        deps.binding_sender(trace, static_cast<trace::EventId>(e));
  });
  for (trace::EventId e = 0; e < trace.num_events(); ++e) {
    trace::EventId s = binding[static_cast<std::size_t>(e)];
    if (s == trace::kNone) continue;
    out.caused_by_chare[static_cast<std::size_t>(trace.event(s).chare)] +=
        out.per_event[static_cast<std::size_t>(e)];
  }
  return out;
}

}  // namespace logstruct::metrics
