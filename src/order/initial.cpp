#include "order/initial.hpp"

#include <numeric>
#include <utility>

#include "obs/progress.hpp"
#include "order/block_units.hpp"
#include "order/context.hpp"

namespace logstruct::order {

BlockUnits compute_block_units(const trace::Trace& trace,
                               std::vector<trace::BlockId> rep,
                               std::span<const trace::BlockId> block_of_event,
                               std::span<const trace::EventId> by_time) {
  BlockUnits u;
  u.rep = std::move(rep);
  u.begin.assign(u.rep.size() + 1, 0);
  u.unit_of_event.assign(static_cast<std::size_t>(trace.num_events()),
                         trace::kNone);
  auto add = [&u](std::size_t e, trace::BlockId block) {
    if (block == trace::kNone) return;
    const trace::BlockId r = u.rep[static_cast<std::size_t>(block)];
    u.unit_of_event[e] = r;
    ++u.begin[static_cast<std::size_t>(r) + 1];
  };
  if (block_of_event.empty()) {
    trace.events().for_each_chunk(
        [&add](const trace::Event* ev, std::size_t n, std::size_t base) {
          for (std::size_t i = 0; i < n; ++i) add(base + i, ev[i].block);
        });
  } else {
    for (std::size_t e = 0; e < block_of_event.size(); ++e)
      add(e, block_of_event[e]);
  }
  std::partial_sum(u.begin.begin(), u.begin.end(), u.begin.begin());
  std::vector<std::int32_t> at(u.begin.begin(), u.begin.end() - 1);
  u.flat.resize(static_cast<std::size_t>(u.begin.back()));
  for (trace::EventId e : by_time) {
    const trace::BlockId r = u.unit_of_event[static_cast<std::size_t>(e)];
    if (r != trace::kNone)
      u.flat[static_cast<std::size_t>(at[static_cast<std::size_t>(r)]++)] = e;
  }
  return u;
}

std::vector<std::uint8_t> runtime_event_flags(const trace::Trace& trace) {
  const auto n = static_cast<std::size_t>(trace.num_events());
  std::vector<std::uint8_t> rt(n, 0);
  const auto chares = trace.chares();
  // Per event: kOwn iff its own chare is a runtime chare, kSend iff it is
  // a send.
  constexpr std::uint8_t kOwn = 1;
  constexpr std::uint8_t kSend = 2;
  std::vector<std::uint8_t> own(n);
  std::vector<trace::EventId> partner(n);
  trace.events().for_each_chunk(
      [&](const trace::Event* ev, std::size_t m, std::size_t base) {
        for (std::size_t i = 0; i < m; ++i) {
          own[base + i] = static_cast<std::uint8_t>(
              (chares[static_cast<std::size_t>(ev[i].chare)].runtime ? kOwn
                                                                     : 0) |
              (ev[i].kind == trace::EventKind::Send ? kSend : 0));
          partner[base + i] = ev[i].partner;
        }
      });
  for (std::size_t e = 0; e < n; ++e) {
    rt[e] |= own[e] & kOwn;
    const trace::EventId p = partner[e];
    if (p == trace::kNone) continue;
    const auto pz = static_cast<std::size_t>(p);
    rt[e] |= own[pz] & kOwn;
    // A receive naming send p is one of p's receivers.
    if ((own[e] & kSend) == 0 && (own[pz] & kSend) != 0)
      rt[pz] |= own[e] & kOwn;
  }
  return rt;
}

PartitionGraph build_initial_partitions(OrderContext& ctx) {
  const trace::Trace& trace = ctx.trace();
  const PartitionOptions& opts = ctx.options().partition;
  const BlockUnits& units = ctx.units(/*sdag_absorption=*/false);
  PartitionGraph pg(trace);
  obs::Progress progress("order/initial", trace.num_events());
  const std::vector<std::uint8_t> is_rt = runtime_event_flags(trace);

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

  pg.finalize(ctx.by_time());
  return pg;
}

}  // namespace logstruct::order
