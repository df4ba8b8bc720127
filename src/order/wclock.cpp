#include "order/wclock.hpp"

#include <algorithm>

#include "util/scratch.hpp"
#include "util/thread_pool.hpp"

namespace logstruct::order {

std::vector<std::int64_t> compute_w(
    const trace::Trace& trace, const EventRows& rows,
    const PhaseResult& phases, std::span<const trace::BlockId> unit_of_block,
    const StepOptions& opts, int threads) {
  std::vector<std::int64_t> w(static_cast<std::size_t>(trace.num_events()),
                              0);
  const bool mpi = opts.mpi_mode;
  auto at = [](auto& v, std::int32_t i) -> auto& {
    return v[static_cast<std::size_t>(i)];
  };

  // Replay state of one phase: the clock of each unit (Charm++ mode: its
  // last w) or of each chare (MPI mode: its largest receive w), and the
  // largest send w of each collective. The stamps scope every entry to
  // the phase that set it.
  struct Tables {
    util::StampedTable<std::int64_t> clock;
    util::StampedTable<std::int64_t> coll_send_max;
  };
  util::ScratchPool<Tables> pool;
  const auto clock_keys = static_cast<std::size_t>(
      mpi ? trace.num_chares() : trace.num_blocks());

  // Each iteration writes w only at this phase's events and reads w only
  // at same-phase senders, so the fan-out is race-free and deterministic.
  util::parallel_for(threads, phases.num_phases(), [&](std::int64_t p) {
    pool.with([&](Tables& t) {
      t.clock.resize(clock_keys);
      t.coll_send_max.resize(trace.collectives().size());
      const auto ph = static_cast<std::int32_t>(p);
      auto raise = [ph](util::StampedTable<std::int64_t>& table,
                        std::int32_t key, std::int64_t value) {
        std::int64_t* cur = table.find(ph, key);
        if (cur)
          *cur = std::max(*cur, value);
        else
          table.set(ph, key) = value;
      };

      for (trace::EventId e : at(phases.events, ph)) {
        const std::int32_t key =
            mpi ? at(rows.chare, e) : at(unit_of_block, at(rows.block, e));
        const std::int64_t* clock = t.clock.find(ph, key);
        const std::int32_t coll = at(rows.collective, e);
        std::int64_t value = 0;

        if (at(rows.kind, e) == trace::EventKind::Send) {
          value = clock ? *clock + 1 : 0;
          if (coll >= 0) raise(t.coll_send_max, coll, value);
        } else {  // Recv
          std::int64_t base = -1;
          const trace::EventId partner = at(rows.partner, e);
          if (partner != trace::kNone &&
              at(phases.phase_of_event, partner) == ph)
            base = at(w, partner);
          if (coll >= 0) {
            if (const std::int64_t* best = t.coll_send_max.find(ph, coll))
              base = std::max(base, *best);
          }
          value = base + 1;  // base == -1 (untraced / cross-phase) -> 0
          if (!mpi && clock) value = std::max(value, *clock + 1);
          if (mpi) raise(t.clock, key, value);
        }

        at(w, e) = value;
        if (!mpi) t.clock.set(ph, key) = value;
      }
    });
  });
  return w;
}

}  // namespace logstruct::order
