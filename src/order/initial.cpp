#include "order/initial.hpp"

#include <numeric>

#include "obs/progress.hpp"
#include "order/block_units.hpp"
#include "trace/sdag.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace logstruct::order {

BlockUnits compute_block_units(const trace::Trace& trace,
                               bool sdag_absorption) {
  BlockUnits u;
  if (sdag_absorption) {
    u.rep = trace::compute_sdag_absorption(trace);
  } else {
    u.rep.resize(static_cast<std::size_t>(trace.num_blocks()));
    std::iota(u.rep.begin(), u.rep.end(), 0);
  }
  u.events.assign(static_cast<std::size_t>(trace.num_blocks()), {});
  u.unit_of_event.assign(static_cast<std::size_t>(trace.num_events()),
                         trace::kNone);
  for (trace::BlockId b = 0; b < trace.num_blocks(); ++b) {
    const auto bev = trace.events_of_block(b);
    auto r = static_cast<std::size_t>(u.rep[static_cast<std::size_t>(b)]);
    u.events[r].insert(u.events[r].end(), bev.begin(), bev.end());
    for (trace::EventId e : bev)
      u.unit_of_event[static_cast<std::size_t>(e)] =
          static_cast<trace::BlockId>(r);
  }
  // A raw unit is one block, whose events are frozen in before() order.
  if (!sdag_absorption) return u;
  // An absorbed unit may span several blocks: refill every list from the
  // one by-time order (clear() keeps the capacity, so nothing regrows).
  for (auto& list : u.events) list.clear();
  for (trace::EventId e : trace.events_by_time()) {
    const trace::BlockId r = u.unit_of_event[static_cast<std::size_t>(e)];
    if (r != trace::kNone) u.events[static_cast<std::size_t>(r)].push_back(e);
  }
  return u;
}

PartitionGraph build_initial_partitions(const trace::Trace& trace,
                                        const PartitionOptions& opts,
                                        const BlockUnits& units,
                                        int threads) {
  PartitionGraph pg(trace);

  // is_runtime_event walks the event's receiver list, making it the
  // dominant per-event cost of this stage; precompute it in parallel
  // (index-owned writes) and let the serial assembly below read the
  // table, so partition ids come out identical for any thread count.
  // Progress: first half is the parallel is_rt precompute, second half
  // the serial run-splitting assembly; both tick in event units.
  const std::int64_t num_events = trace.num_events();
  obs::Progress progress("order/initial", 2 * num_events);
  std::vector<char> is_rt(static_cast<std::size_t>(trace.num_events()), 0);
  util::parallel_for_chunks(
      threads, trace.num_events(), 8192,
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t e = begin; e < end; ++e)
          is_rt[static_cast<std::size_t>(e)] =
              trace.is_runtime_event(static_cast<trace::EventId>(e)) ? 1 : 0;
        obs::Progress::tick(end - begin);
      });

  // Split each block into runs at application/runtime boundaries and
  // chain the runs (edge type 2).
  std::vector<PartId> first_part(units.events.size(), -1);
  std::vector<PartId> last_part(units.events.size(), -1);
  std::int64_t ticked = 0;  // batch progress to keep the loop cheap
  for (std::size_t r = 0; r < units.events.size(); ++r) {
    const auto& events = units.events[r];
    if (events.empty()) continue;
    PartId prev = -1;
    std::size_t i = 0;
    while (i < events.size()) {
      bool kind = is_rt[static_cast<std::size_t>(events[i])] != 0;
      std::size_t j = i + 1;
      if (opts.split_app_runtime) {
        while (j < events.size() &&
               (is_rt[static_cast<std::size_t>(events[j])] != 0) == kind)
          ++j;
      } else {
        j = events.size();
        // Without splitting, the run is "runtime" if anything in it
        // touches the runtime.
        for (std::size_t k = i; k < j && !kind; ++k)
          kind = is_rt[static_cast<std::size_t>(events[k])] != 0;
      }
      PartId p = pg.add_partition(
          std::vector<trace::EventId>(events.begin() +
                                          static_cast<std::ptrdiff_t>(i),
                                      events.begin() +
                                          static_cast<std::ptrdiff_t>(j)),
          kind);
      if (prev != -1) pg.add_edge(prev, p);
      if (first_part[r] == -1) first_part[r] = p;
      prev = p;
      i = j;
    }
    last_part[r] = prev;
    ticked += static_cast<std::int64_t>(events.size());
    if (ticked >= 65536) {
      obs::Progress::tick(ticked);
      ticked = 0;
    }
  }
  if (ticked > 0) obs::Progress::tick(ticked);

  // Edge type 1: remote method invocations.
  trace.for_each_dependency([&](trace::EventId s, trace::EventId rcv) {
    pg.add_edge(pg.part_of(s), pg.part_of(rcv));
  });

  // Edge type 3: SDAG inference. (a) A `when`-triggered execution
  // happened-before the serial it awakened; (b) serial n happened-before
  // the nearest following serial n+1 on the same chare.
  if (opts.sdag_inference) {
    std::vector<trace::BlockId> rep = trace::compute_sdag_absorption(trace);
    for (trace::BlockId b = 0; b < trace.num_blocks(); ++b) {
      auto r = static_cast<std::size_t>(rep[static_cast<std::size_t>(b)]);
      if (r == static_cast<std::size_t>(b)) continue;
      if (last_part[static_cast<std::size_t>(b)] == -1 ||
          first_part[r] == -1)
        continue;
      pg.add_edge(last_part[static_cast<std::size_t>(b)], first_part[r]);
    }
    for (auto [b1, b2] : trace::sdag_happened_before(trace)) {
      if (last_part[static_cast<std::size_t>(b1)] == -1 ||
          first_part[static_cast<std::size_t>(b2)] == -1)
        continue;
      pg.add_edge(last_part[static_cast<std::size_t>(b1)],
                  first_part[static_cast<std::size_t>(b2)]);
    }
  }

  // Message-passing model: per-process physical order is happened-before
  // (§3.4). Strict mode chains every consecutive pair (the Isaacs'13
  // assumption). Relaxed mode reflects the §3.2.1 replay semantics:
  // receives carry no process-order dependency (they may replay earlier),
  // while a send depends on the previous send and every receive between
  // them.
  if (opts.process_order_edges) {
    for (trace::ProcId p = 0; p < trace.num_procs(); ++p) {
      trace::EventId prev = trace::kNone;
      std::vector<trace::EventId> window;  // prev send + later receives
      for (trace::BlockId b : trace.blocks_of_proc(p)) {
        for (trace::EventId e : trace.events_of_block(b)) {
          if (opts.strict_receive_order) {
            if (prev != trace::kNone)
              pg.add_edge(pg.part_of(prev), pg.part_of(e));
            prev = e;
          } else {
            if (trace.event(e).kind == trace::EventKind::Send) {
              for (trace::EventId w : window)
                pg.add_edge(pg.part_of(w), pg.part_of(e));
              window.clear();
              window.push_back(e);
            } else {
              window.push_back(e);
            }
          }
        }
      }
    }
  }

  pg.finalize();
  return pg;
}

}  // namespace logstruct::order
