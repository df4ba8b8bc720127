#include "order/merges.hpp"

#include <map>
#include <utility>
#include <vector>

#include "order/block_units.hpp"
#include "order/context.hpp"
#include "trace/sdag.hpp"

namespace logstruct::order {

void dependency_merge(OrderContext& ctx) {
  PartitionGraph& pg = ctx.pg();
  auto& pairs = ctx.scratch_pairs();
  pg.trace().for_each_dependency([&](trace::EventId s, trace::EventId r) {
    PartId p = pg.part_of(s);
    PartId q = pg.part_of(r);
    // Matching ends of an invocation always classify identically (both
    // sides see the same chare pair), so the same-kind guard is a no-op
    // for point-to-point messages but protects against mixed partitions
    // produced by earlier cycle merges.
    if (p != q && pg.runtime(p) == pg.runtime(q)) pairs.emplace_back(p, q);
  });
  pg.apply_merges(pairs);
  pg.cycle_merge();
}

void repair_merge(OrderContext& ctx) {
  PartitionGraph& pg = ctx.pg();
  // Raw serial blocks: the repair restores merges broken by the
  // app/runtime split within one block (paper Fig. 4).
  const BlockUnits& units = ctx.units(/*sdag_absorption=*/false);

  // Paper Algorithm 2, literally: an event's "serial happened-before" is
  // the adjacent previous event in its block; merge their partitions when
  // the partitions carry the SAME app/runtime kind. Adjacent events of
  // the same classification always start in one run, so this only fires
  // after earlier cycle merges produced mixed (runtime-flagged)
  // partitions on one side of a split — it re-attaches the pieces those
  // merges stranded. Reaching back across the runtime run instead (a
  // plausible alternative reading of Fig. 4) would also weld, e.g., a
  // LASSEN control self-send onto the halo receives of its block and
  // erase the paper's observed two-step phases.
  auto& pairs = ctx.scratch_pairs();
  for (const auto& events : units.events) {
    for (std::size_t i = 1; i < events.size(); ++i) {
      PartId q = pg.part_of(events[i - 1]);
      PartId p = pg.part_of(events[i]);
      if (p != q && pg.runtime(p) == pg.runtime(q)) pairs.emplace_back(p, q);
    }
  }
  pg.apply_merges(pairs);
  pg.cycle_merge();
}

void neighbor_serial_merge(OrderContext& ctx) {
  PartitionGraph& pg = ctx.pg();
  const trace::Trace& trace = pg.trace();
  const BlockUnits& units = ctx.units(/*sdag_absorption=*/false);

  // For each (partition of serial n, serial number n+1): the partitions in
  // which the group's chares continue. If one multi-chare partition flows
  // into several successor partitions, those successors belong together.
  std::map<std::pair<PartId, std::int32_t>, std::vector<PartId>> flows;
  for (auto [b1, b2] : trace::sdag_happened_before(trace)) {
    auto r1 = static_cast<std::size_t>(
        units.rep[static_cast<std::size_t>(b1)]);
    auto r2 = static_cast<std::size_t>(
        units.rep[static_cast<std::size_t>(b2)]);
    if (units.events[r1].empty() || units.events[r2].empty()) continue;
    PartId p = pg.part_of(units.events[r1].back());
    PartId q = pg.part_of(units.events[r2].front());
    std::int32_t serial =
        trace.entry(trace.block(static_cast<trace::BlockId>(b2)).entry)
            .sdag_serial;
    flows[{p, serial}].push_back(q);
  }

  auto& pairs = ctx.scratch_pairs();
  for (auto& [key, succs] : flows) {
    if (pg.chares(key.first).size() < 2) continue;  // not a chare group
    for (std::size_t i = 1; i < succs.size(); ++i) {
      if (succs[i] != succs[0] &&
          pg.runtime(succs[i]) == pg.runtime(succs[0]))
        pairs.emplace_back(succs[0], succs[i]);
    }
  }
  pg.apply_merges(pairs);
  pg.cycle_merge();
}

}  // namespace logstruct::order
