#include "order/merges.hpp"

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "order/block_units.hpp"
#include "order/context.hpp"

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
  const BlockUnits& units = ctx.units();

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
  for (trace::BlockId r = 0; r < units.num_blocks(); ++r) {
    const auto events = units.events(r);
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
  const BlockUnits& units = ctx.units();
  const trace::SdagRelations& sdag = ctx.sdag();

  // For each (partition of serial n, serial number n+1): the partitions in
  // which the group's chares continue, in happened-before order. If one
  // multi-chare partition flows into several successor partitions, those
  // successors belong together.
  struct Flow {
    PartId p;
    std::int32_t serial;
    std::int32_t hb;  ///< index into sdag.happened_before: the tie-break
    PartId q;
  };
  std::vector<Flow> flows;
  for (std::size_t i = 0; i < sdag.happened_before.size(); ++i) {
    const auto [b1, b2] = sdag.happened_before[i];
    const auto from = units.events(b1);
    const auto to = units.events(b2);
    if (from.empty() || to.empty()) continue;
    flows.push_back({pg.part_of(from.back()),
                     sdag.serial[static_cast<std::size_t>(b2)],
                     static_cast<std::int32_t>(i), pg.part_of(to.front())});
  }
  std::sort(flows.begin(), flows.end(), [](const Flow& a, const Flow& b) {
    return std::tie(a.p, a.serial, a.hb) < std::tie(b.p, b.serial, b.hb);
  });

  auto& pairs = ctx.scratch_pairs();
  for (std::size_t lo = 0, hi = 0; lo < flows.size(); lo = hi) {
    const Flow& head = flows[lo];
    hi = lo + 1;
    while (hi < flows.size() && flows[hi].p == head.p &&
           flows[hi].serial == head.serial)
      ++hi;
    if (pg.chares(head.p).size() < 2) continue;  // not a chare group
    for (std::size_t i = lo + 1; i < hi; ++i) {
      if (flows[i].q != head.q && pg.runtime(flows[i].q) == pg.runtime(head.q))
        pairs.emplace_back(head.q, flows[i].q);
    }
  }
  pg.apply_merges(pairs);
  pg.cycle_merge();
}

}  // namespace logstruct::order
