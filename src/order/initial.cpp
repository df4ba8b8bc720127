#include "order/initial.hpp"

#include <utility>

#include "obs/progress.hpp"
#include "order/block_units.hpp"
#include "order/context.hpp"

namespace logstruct::order {

EventRows event_rows(const trace::Trace& trace) {
  const auto n = static_cast<std::size_t>(trace.num_events());
  EventRows rows;
  rows.chare.resize(n);
  rows.kind.resize(n);
  rows.partner.resize(n);
  rows.block.resize(n);
  rows.collective.assign(n, -1);
  trace.events().for_each_chunk(
      [&rows](const trace::Event* ev, std::size_t m, std::size_t base) {
        for (std::size_t i = 0; i < m; ++i) {
          rows.chare[base + i] = ev[i].chare;
          rows.kind[base + i] = ev[i].kind;
          rows.partner[base + i] = ev[i].partner;
          rows.block[base + i] = ev[i].block;
        }
      });
  const auto colls = trace.collectives();
  for (std::size_t c = 0; c < colls.size(); ++c) {
    const auto index = static_cast<std::int32_t>(c);
    for (trace::EventId e : colls[c].sends)
      rows.collective[static_cast<std::size_t>(e)] = index;
    for (trace::EventId e : colls[c].recvs)
      rows.collective[static_cast<std::size_t>(e)] = index;
  }
  return rows;
}

std::vector<std::uint8_t> runtime_event_flags(
    const EventRows& rows, std::span<const trace::ChareInfo> chares) {
  const std::size_t n = rows.chare.size();
  std::vector<std::uint8_t> rt(n, 0);
  auto own = [&](std::size_t e) -> std::uint8_t {
    return chares[static_cast<std::size_t>(rows.chare[e])].runtime ? 1 : 0;
  };
  for (std::size_t e = 0; e < n; ++e) {
    rt[e] |= own(e);
    const trace::EventId p = rows.partner[e];
    if (p == trace::kNone) continue;
    const auto pz = static_cast<std::size_t>(p);
    rt[e] |= own(pz);
    // A receive naming send p is one of p's receivers.
    if (rows.kind[e] != trace::EventKind::Send &&
        rows.kind[pz] == trace::EventKind::Send)
      rt[pz] |= own(e);
  }
  return rt;
}

PartitionGraph build_initial_partitions(OrderContext& ctx) {
  const trace::Trace& trace = ctx.trace();
  const PartitionOptions& opts = ctx.options().partition;
  const BlockUnits& units = ctx.units();
  const EventRows& rows = ctx.event_rows();
  PartitionGraph pg(trace);
  obs::Progress progress("order/initial", trace.num_events());
  const std::vector<std::uint8_t> is_rt =
      runtime_event_flags(rows, trace.chares());

  // Split each block into runs at application/runtime boundaries and
  // chain the runs (edge type 2).
  const auto num_blocks = static_cast<std::size_t>(units.num_blocks());
  std::vector<PartId> first_part(num_blocks, -1);
  std::vector<PartId> last_part(num_blocks, -1);
  std::int64_t ticked = 0;  // batch progress to keep the loop cheap
  for (std::size_t r = 0; r < num_blocks; ++r) {
    const auto events = units.events(static_cast<trace::BlockId>(r));
    if (events.empty()) continue;
    auto runtime = [&](std::size_t k) {
      return is_rt[static_cast<std::size_t>(events[k])] != 0;
    };
    PartId prev = -1;
    std::size_t i = 0;
    while (i < events.size()) {
      bool kind = runtime(i);
      std::size_t j = i + 1;
      if (opts.split_app_runtime) {
        while (j < events.size() && runtime(j) == kind) ++j;
      } else {
        j = events.size();
        // Without splitting, the run is "runtime" if anything in it
        // touches the runtime.
        for (std::size_t k = i; k < j && !kind; ++k) kind = runtime(k);
      }
      PartId p = pg.add_partition(events.subspan(i, j - i), kind);
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
    const trace::SdagRelations& sdag = ctx.sdag();
    for (std::size_t b = 0; b < num_blocks; ++b) {
      const auto r = static_cast<std::size_t>(sdag.rep[b]);
      if (r == b || last_part[b] == -1 || first_part[r] == -1) continue;
      pg.add_edge(last_part[b], first_part[r]);
    }
    for (auto [b1, b2] : sdag.happened_before) {
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
            if (rows.kind[static_cast<std::size_t>(e)] ==
                trace::EventKind::Send) {
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

  pg.finalize(ctx.by_time());
  return pg;
}

}  // namespace logstruct::order
