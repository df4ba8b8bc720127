#include "order/merges.hpp"

#include <gtest/gtest.h>

#include "graph/leaps.hpp"
#include "order/context.hpp"
#include "order/infer.hpp"
#include "order/initial.hpp"
#include "trace/builder.hpp"

namespace logstruct::order {
namespace {

TEST(Merges, DependencyMergeJoinsMatchingEnds) {
  trace::TraceBuilder tb;
  trace::ChareId a = tb.add_chare("a");
  trace::ChareId b = tb.add_chare("b");
  trace::EntryId e = tb.add_entry("go");
  trace::BlockId ba = tb.begin_block(a, 0, e, 0);
  trace::EventId s = tb.add_send(ba, 10);
  tb.end_block(ba, 20);
  trace::BlockId bb = tb.begin_block(b, 1, e, 100);
  trace::EventId r = tb.add_recv(bb, 100, s);
  tb.end_block(bb, 110);
  trace::Trace t = tb.finish(2);

  OrderContext ctx(t, Options{});
  ctx.set_pg(build_initial_partitions(t, PartitionOptions{}));
  PartitionGraph& pg = ctx.pg();
  EXPECT_NE(pg.part_of(s), pg.part_of(r));
  dependency_merge(ctx);
  EXPECT_EQ(pg.part_of(s), pg.part_of(r));
}

TEST(Merges, DependencyMergeSkipsMixedKinds) {
  // An app->runtime pair classifies as runtime on BOTH ends, so the merge
  // happens; this guards the classification rather than a skip. A truly
  // mixed pair only arises from earlier cycle merges.
  trace::TraceBuilder tb;
  trace::ChareId a = tb.add_chare("a");
  trace::ChareId r = tb.add_chare("mgr", trace::kNone, -1, 0, true);
  trace::EntryId e = tb.add_entry("go");
  trace::EntryId er = tb.add_entry("rt", true);
  trace::BlockId ba = tb.begin_block(a, 0, e, 0);
  trace::EventId s = tb.add_send(ba, 10);
  tb.end_block(ba, 20);
  trace::BlockId br = tb.begin_block(r, 0, er, 100);
  trace::EventId rv = tb.add_recv(br, 100, s);
  tb.end_block(br, 110);
  trace::Trace t = tb.finish(1);

  OrderContext ctx(t, Options{});
  ctx.set_pg(build_initial_partitions(t, PartitionOptions{}));
  PartitionGraph& pg = ctx.pg();
  EXPECT_TRUE(pg.runtime(pg.part_of(s)));
  EXPECT_TRUE(pg.runtime(pg.part_of(rv)));
  dependency_merge(ctx);
  EXPECT_EQ(pg.part_of(s), pg.part_of(rv));
}

/// Paper Fig. 4 scenario: a serial block's app events are split by an
/// intervening runtime dependency. Algorithm 2 (adjacent serial
/// happened-before, same-kind partitions) deliberately does NOT weld the
/// app runs across the runtime piece — that separation carries LASSEN's
/// two-step control phases — and the later leap merge is what reunites
/// split pieces that really belong to one phase.
TEST(Merges, RepairLeavesSplitRunsForLeapMerge) {
  trace::TraceBuilder tb;
  trace::ChareId a = tb.add_chare("a");
  trace::ChareId b = tb.add_chare("b");
  trace::ChareId r = tb.add_chare("mgr", trace::kNone, -1, 0, true);
  trace::EntryId e = tb.add_entry("go");
  trace::EntryId er = tb.add_entry("rt", true);

  // Block on a: [app send s1, runtime send sr, app send s2].
  trace::BlockId ba = tb.begin_block(a, 0, e, 0);
  trace::EventId s1 = tb.add_send(ba, 10);
  trace::EventId sr = tb.add_send(ba, 20);
  trace::EventId s2 = tb.add_send(ba, 30);
  tb.end_block(ba, 40);
  // Matches.
  trace::BlockId bb1 = tb.begin_block(b, 1, e, 100);
  tb.add_recv(bb1, 100, s1);
  tb.end_block(bb1, 105);
  trace::BlockId brt = tb.begin_block(r, 0, er, 110);
  tb.add_recv(brt, 110, sr);
  tb.end_block(brt, 115);
  trace::BlockId bb2 = tb.begin_block(b, 1, e, 120);
  tb.add_recv(bb2, 120, s2);
  tb.end_block(bb2, 125);
  trace::Trace t = tb.finish(2);

  OrderContext ctx(t, Options{});
  ctx.set_pg(build_initial_partitions(t, PartitionOptions{}));
  PartitionGraph& pg = ctx.pg();
  // Split: s1 | sr | s2 in three initial partitions.
  EXPECT_NE(pg.part_of(s1), pg.part_of(s2));
  EXPECT_NE(pg.part_of(s1), pg.part_of(sr));
  EXPECT_FALSE(pg.runtime(pg.part_of(s1)));
  EXPECT_TRUE(pg.runtime(pg.part_of(sr)));

  dependency_merge(ctx);
  repair_merge(ctx);
  // The repair alone keeps all three pieces apart (adjacent pairs differ
  // in kind)...
  EXPECT_NE(pg.part_of(s1), pg.part_of(s2));
  EXPECT_NE(pg.part_of(s1), pg.part_of(sr));

  // ...which is correct: the block's chain edges order them
  // app -> runtime -> app, so they are sequential phases, not one. The
  // leap enforcement leaves that sequence alone (different leaps never
  // merge).
  enforce_leap_property(ctx);
  EXPECT_NE(pg.part_of(s1), pg.part_of(s2));
  auto leaps = graph::compute_leaps(pg.dag());
  EXPECT_LT(leaps[static_cast<std::size_t>(pg.part_of(s1))],
            leaps[static_cast<std::size_t>(pg.part_of(sr))]);
  EXPECT_LT(leaps[static_cast<std::size_t>(pg.part_of(sr))],
            leaps[static_cast<std::size_t>(pg.part_of(s2))]);
}

/// §3.1.3 second rule: one multi-chare serial-n phase flowing into
/// several serial-(n+1) partitions merges those successors.
TEST(Merges, NeighborSerialMergeGroupsSuccessors) {
  trace::TraceBuilder tb;
  trace::ChareId a = tb.add_chare("a");
  trace::ChareId b = tb.add_chare("b");
  trace::EntryId s0 = tb.add_entry("serial_0", false, 0);
  trace::EntryId s1 = tb.add_entry("serial_1", false, 1);

  // serial_0 on a and b: a sends to b, whose serial_0 block replies, so
  // the dependency merge chains everything into one multi-chare phase.
  trace::BlockId a0 = tb.begin_block(a, 0, s0, 0);
  trace::EventId sa = tb.add_send(a0, 5);
  tb.end_block(a0, 10);
  trace::BlockId b0 = tb.begin_block(b, 1, s0, 20);
  tb.add_recv(b0, 20, sa);
  trace::EventId sb = tb.add_send(b0, 22);
  tb.end_block(b0, 25);
  trace::BlockId a0r = tb.begin_block(a, 0, s0, 40);
  tb.add_recv(a0r, 40, sb);
  tb.end_block(a0r, 45);

  // serial_1 on each chare: disconnected singleton partitions.
  trace::ChareId c = tb.add_chare("c");
  trace::ChareId d = tb.add_chare("d");
  trace::BlockId a1 = tb.begin_block(a, 0, s1, 50);
  trace::EventId sa1 = tb.add_send(a1, 50);
  tb.end_block(a1, 55);
  trace::BlockId b1 = tb.begin_block(b, 1, s1, 50);
  trace::EventId sb1 = tb.add_send(b1, 50);
  tb.end_block(b1, 55);
  trace::BlockId cr = tb.begin_block(c, 0, s1, 80);
  tb.add_recv(cr, 80, sa1);
  tb.end_block(cr, 85);
  trace::BlockId dr = tb.begin_block(d, 1, s1, 80);
  tb.add_recv(dr, 80, sb1);
  tb.end_block(dr, 85);
  trace::Trace t = tb.finish(2);

  PartitionOptions opts;
  OrderContext ctx(t, Options{});
  ctx.set_pg(build_initial_partitions(t, opts));
  PartitionGraph& pg = ctx.pg();
  pg.cycle_merge();
  dependency_merge(ctx);
  repair_merge(ctx);
  // serial_0 group merged into one multi-chare phase; serial_1 halves
  // still separate.
  ASSERT_EQ(pg.part_of(sa), pg.part_of(sb));
  ASSERT_NE(pg.part_of(sa1), pg.part_of(sb1));

  neighbor_serial_merge(ctx);
  EXPECT_EQ(pg.part_of(sa1), pg.part_of(sb1));
}

TEST(Merges, NeighborSerialMergeIgnoresSingleChareSources) {
  // A single-chare serial_0 partition flowing into two serial_1
  // partitions is NOT a chare-group handoff: no merge.
  trace::TraceBuilder tb;
  trace::ChareId a = tb.add_chare("a");
  trace::ChareId c = tb.add_chare("c");
  trace::EntryId s0 = tb.add_entry("serial_0", false, 0);
  trace::EntryId s1 = tb.add_entry("serial_1", false, 1);
  trace::BlockId a0 = tb.begin_block(a, 0, s0, 0);
  trace::EventId s = tb.add_send(a0, 5);
  tb.end_block(a0, 10);
  trace::BlockId crx = tb.begin_block(c, 1, s0, 20);
  tb.add_recv(crx, 20, s);
  tb.end_block(crx, 25);
  // Two separate serial_1 executions on a, each its own message chain.
  trace::BlockId a1 = tb.begin_block(a, 0, s1, 50);
  trace::EventId s1a = tb.add_send(a1, 50);
  tb.end_block(a1, 55);
  trace::BlockId cr1 = tb.begin_block(c, 1, s1, 80);
  tb.add_recv(cr1, 80, s1a);
  tb.end_block(cr1, 85);
  trace::Trace t = tb.finish(2);

  PartitionOptions opts;
  OrderContext ctx(t, Options{});
  ctx.set_pg(build_initial_partitions(t, opts));
  PartitionGraph& pg = ctx.pg();
  pg.cycle_merge();
  dependency_merge(ctx);
  std::int32_t before = pg.num_partitions();
  neighbor_serial_merge(ctx);
  EXPECT_EQ(pg.num_partitions(), before);
}

}  // namespace
}  // namespace logstruct::order
