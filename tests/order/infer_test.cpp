#include "order/infer.hpp"

#include <gtest/gtest.h>

#include "apps/jacobi2d.hpp"
#include "apps/lulesh.hpp"
#include "apps/pdes.hpp"
#include "order/context.hpp"
#include "order/initial.hpp"
#include "order/merges.hpp"
#include "order/pass_manager.hpp"
#include "order/phases.hpp"
#include "trace/builder.hpp"

namespace logstruct::order {
namespace {

/// Run the registered partition passes; ctx.pg() stays inspectable.
void run_pipeline(OrderContext& ctx) {
  PassManager pm;
  register_partition_passes(pm, ctx.options().partition);
  pm.run(ctx);
}

/// A context holding the initial partitions of t, for driving single
/// passes by hand.
void start_initial(OrderContext& ctx) {
  ctx.set_pg(build_initial_partitions(ctx.trace(), ctx.options().partition));
}

TEST(Infer, PropertiesHoldOnJacobi) {
  apps::Jacobi2DConfig cfg;
  cfg.chares_x = 4;
  cfg.chares_y = 4;
  cfg.num_pes = 4;
  cfg.iterations = 3;
  trace::Trace t = apps::run_jacobi2d(cfg);
  OrderContext ctx(t, Options{});
  run_pipeline(ctx);
  const PartitionGraph& pg = ctx.pg();
  EXPECT_TRUE(check_leap_property(pg));
  EXPECT_TRUE(check_chare_paths(pg));
}

TEST(Infer, PropertiesHoldOnLuleshAllOptionSets) {
  apps::LuleshConfig cfg;
  cfg.iterations = 3;
  trace::Trace t = apps::run_lulesh_charm(cfg);
  for (const Options& opts : {Options::charm(), Options::charm_no_inference()}) {
    OrderContext ctx(t, opts);
    run_pipeline(ctx);
    const PartitionGraph& pg = ctx.pg();
    EXPECT_TRUE(check_leap_property(pg));
    EXPECT_TRUE(check_chare_paths(pg));
  }
}

TEST(Infer, PropertiesHoldOnPdesWithMissingDeps) {
  apps::PdesConfig cfg;
  trace::Trace t = apps::run_pdes(cfg);
  OrderContext ctx(t, Options{});
  run_pipeline(ctx);
  const PartitionGraph& pg = ctx.pg();
  EXPECT_TRUE(check_leap_property(pg));
  EXPECT_TRUE(check_chare_paths(pg));
}

TEST(Infer, CheckDetectsLeapViolation) {
  // Two unconnected partitions on the same chare: both at leap 0.
  trace::TraceBuilder tb;
  trace::ChareId a = tb.add_chare("a");
  trace::EntryId e = tb.add_entry("go");
  trace::BlockId b1 = tb.begin_block(a, 0, e, 0);
  tb.add_send(b1, 0);
  tb.end_block(b1, 5);
  trace::BlockId b2 = tb.begin_block(a, 0, e, 10);
  tb.add_send(b2, 10);
  tb.end_block(b2, 15);
  trace::Trace t = tb.finish(1);

  OrderContext ctx(t, Options{});
  start_initial(ctx);
  PartitionGraph& pg = ctx.pg();
  EXPECT_FALSE(check_leap_property(pg));

  // Enforcement with leap_merge merges them (same kind, same leap).
  enforce_leap_property(ctx);
  EXPECT_TRUE(check_leap_property(pg));
  EXPECT_EQ(pg.num_partitions(), 1);
}

TEST(Infer, EnforcementWithoutMergeAddsOrderEdge) {
  trace::TraceBuilder tb;
  trace::ChareId a = tb.add_chare("a");
  trace::EntryId e = tb.add_entry("go");
  trace::BlockId b1 = tb.begin_block(a, 0, e, 0);
  trace::EventId s1 = tb.add_send(b1, 0);
  tb.end_block(b1, 5);
  trace::BlockId b2 = tb.begin_block(a, 0, e, 10);
  trace::EventId s2 = tb.add_send(b2, 10);
  tb.end_block(b2, 15);
  trace::Trace t = tb.finish(1);

  Options opts;
  opts.partition.leap_merge = false;  // Fig. 17 ablation path
  OrderContext ctx(t, opts);
  start_initial(ctx);
  PartitionGraph& pg = ctx.pg();
  enforce_leap_property(ctx);
  EXPECT_TRUE(check_leap_property(pg));
  EXPECT_EQ(pg.num_partitions(), 2);
  // Ordered by physical time of the initial sources: s1's partition first.
  EXPECT_TRUE(pg.dag().has_edge(pg.part_of(s1), pg.part_of(s2)));
}

TEST(Infer, AppRuntimeOverlapOrderedNotMerged) {
  // One chare appearing in an app partition and a runtime partition with
  // no dependency between them: the fixpoint must order them by time, not
  // merge them.
  trace::TraceBuilder tb;
  trace::ChareId a = tb.add_chare("a");
  trace::ChareId r = tb.add_chare("mgr", trace::kNone, -1, 0, true);
  trace::EntryId e = tb.add_entry("go");
  trace::EntryId er = tb.add_entry("rt", true);
  trace::BlockId b1 = tb.begin_block(a, 0, e, 0);
  trace::EventId s_app = tb.add_send(b1, 0);  // dangling app send
  tb.end_block(b1, 5);
  trace::BlockId b2 = tb.begin_block(a, 0, e, 10);
  trace::EventId s_rt = tb.add_send(b2, 10);  // send to runtime chare
  tb.end_block(b2, 15);
  trace::BlockId b3 = tb.begin_block(r, 0, er, 100);
  tb.add_recv(b3, 100, s_rt);
  tb.end_block(b3, 110);
  trace::Trace t = tb.finish(1);

  OrderContext ctx(t, Options{});
  start_initial(ctx);
  PartitionGraph& pg = ctx.pg();
  dependency_merge(ctx);
  enforce_leap_property(ctx);
  EXPECT_TRUE(check_leap_property(pg));
  PartId p_app = pg.part_of(s_app);
  PartId p_rt = pg.part_of(s_rt);
  EXPECT_NE(p_app, p_rt);
  EXPECT_FALSE(pg.runtime(p_app));
  EXPECT_TRUE(pg.runtime(p_rt));
  EXPECT_TRUE(pg.dag().has_edge(p_app, p_rt));  // earlier source first
}

TEST(Infer, CharePathEnforcementAddsSkipEdge) {
  // Paper Fig. 6: phase X's gray chare is missing from X's successors but
  // appears at a later leap in S; an edge X -> S must be added so both
  // cannot assign the gray chare the same global steps.
  //
  // A driver chare d opens phases X, Q, S with partition-initial sends at
  // increasing times (source-order inference chains X -> Q -> S). gray
  // receives in X and S but not in Q, so X's direct successors miss it.
  trace::TraceBuilder tb;
  trace::ChareId d = tb.add_chare("driver");
  trace::ChareId gray = tb.add_chare("gray");
  trace::ChareId aux = tb.add_chare("aux");
  trace::EntryId e = tb.add_entry("go");

  trace::BlockId dx = tb.begin_block(d, 0, e, 0);
  trace::EventId xs = tb.add_send(dx, 0);
  tb.end_block(dx, 5);
  trace::BlockId gx = tb.begin_block(gray, 1, e, 10);
  tb.add_recv(gx, 10, xs);
  tb.end_block(gx, 15);

  trace::BlockId dq = tb.begin_block(d, 0, e, 30);
  trace::EventId qs = tb.add_send(dq, 30);
  tb.end_block(dq, 35);
  trace::BlockId qa = tb.begin_block(aux, 0, e, 40);
  tb.add_recv(qa, 40, qs);
  tb.end_block(qa, 45);

  trace::BlockId ds = tb.begin_block(d, 0, e, 60);
  trace::EventId ss = tb.add_send(ds, 60);
  tb.end_block(ds, 65);
  trace::BlockId gs = tb.begin_block(gray, 1, e, 70);
  tb.add_recv(gs, 70, ss);
  tb.end_block(gs, 75);
  trace::Trace t = tb.finish(2);

  OrderContext ctx(t, Options{});
  run_pipeline(ctx);
  const PartitionGraph& pg = ctx.pg();
  EXPECT_TRUE(check_chare_paths(pg));
  PartId px = pg.part_of(xs);
  PartId pq = pg.part_of(qs);
  PartId ps = pg.part_of(ss);
  ASSERT_NE(px, pq);
  ASSERT_NE(pq, ps);
  // The chain from source-order inference plus the Alg 5 skip edge.
  EXPECT_TRUE(pg.dag().has_edge(px, pq));
  EXPECT_TRUE(pg.dag().has_edge(pq, ps));
  EXPECT_TRUE(pg.dag().has_edge(px, ps));
}

}  // namespace
}  // namespace logstruct::order
