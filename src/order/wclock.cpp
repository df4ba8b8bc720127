#include "order/wclock.hpp"

#include <unordered_map>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace logstruct::order {

std::vector<std::int32_t> collective_of_events(const trace::Trace& trace) {
  std::vector<std::int32_t> coll_of(
      static_cast<std::size_t>(trace.num_events()), -1);
  for (std::size_t c = 0; c < trace.collectives().size(); ++c) {
    for (trace::EventId e : trace.collectives()[c].sends)
      coll_of[static_cast<std::size_t>(e)] = static_cast<std::int32_t>(c);
    for (trace::EventId e : trace.collectives()[c].recvs)
      coll_of[static_cast<std::size_t>(e)] = static_cast<std::int32_t>(c);
  }
  return coll_of;
}

std::vector<std::int64_t> compute_w(const trace::Trace& trace,
                                    const PhaseResult& phases,
                                    const BlockUnits& units,
                                    const std::vector<std::int32_t>& coll_of,
                                    const StepOptions& opts,
                                    int threads) {
  std::vector<std::int64_t> w(static_cast<std::size_t>(trace.num_events()),
                              0);

  // Each iteration writes w only at this phase's events and reads w only
  // at same-phase senders, so the fan-out is race-free and deterministic.
  util::parallel_for(threads, phases.num_phases(), [&](std::int64_t p) {
    const auto ph = static_cast<std::int32_t>(p);
    // Per-unit last w (Charm++ mode), per-chare max receive w (MPI mode),
    // per-collective max send w — all scoped to this phase.
    std::unordered_map<trace::BlockId, std::int64_t> unit_last;
    std::unordered_map<trace::ChareId, std::int64_t> chare_recv_max;
    std::unordered_map<std::int32_t, std::int64_t> coll_send_max;

    for (trace::EventId e : phases.events[static_cast<std::size_t>(ph)]) {
      const trace::Event& ev = trace.event(e);
      const trace::BlockId unit =
          units.unit_of_event[static_cast<std::size_t>(e)];
      std::int64_t value = 0;

      if (ev.kind == trace::EventKind::Send) {
        if (opts.mpi_mode) {
          auto it = chare_recv_max.find(ev.chare);
          value = it == chare_recv_max.end() ? 0 : it->second + 1;
        } else {
          auto it = unit_last.find(unit);
          value = it == unit_last.end() ? 0 : it->second + 1;
        }
        const std::int32_t coll = coll_of[static_cast<std::size_t>(e)];
        if (coll >= 0) {
          auto& best = coll_send_max[coll];
          best = std::max(best, value);
        }
      } else {  // Recv
        std::int64_t base = -1;
        if (ev.partner != trace::kNone &&
            phases.phase_of_event[static_cast<std::size_t>(ev.partner)] ==
                ph) {
          base = w[static_cast<std::size_t>(ev.partner)];
        }
        const std::int32_t coll = coll_of[static_cast<std::size_t>(e)];
        if (coll >= 0) {
          auto it = coll_send_max.find(coll);
          if (it != coll_send_max.end()) base = std::max(base, it->second);
        }
        value = base + 1;  // base == -1 (untraced / cross-phase) -> 0
        if (!opts.mpi_mode) {
          auto it = unit_last.find(unit);
          if (it != unit_last.end()) value = std::max(value, it->second + 1);
        }
        if (opts.mpi_mode) {
          auto& best = chare_recv_max[ev.chare];
          auto it = chare_recv_max.find(ev.chare);
          best = it == chare_recv_max.end() ? value : std::max(best, value);
        }
      }

      w[static_cast<std::size_t>(e)] = value;
      if (!opts.mpi_mode) unit_last[unit] = value;
    }
  });
  return w;
}

}  // namespace logstruct::order
