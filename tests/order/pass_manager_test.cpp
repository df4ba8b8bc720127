/// PassManager + OrderContext unit tests: registration order, disabled
/// passes, record bookkeeping, per-pass invariant checking against real
/// app traces (including the ablation option sets), and the context's
/// epoch-keyed caches, and the crash flight recorder's refresh at pass
/// boundaries.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/jacobi2d.hpp"
#include "apps/lulesh.hpp"
#include "obs/flightrec.hpp"
#include "obs/json.hpp"
#include "obs/memstats.hpp"
#include "obs/registry.hpp"
#include "order/context.hpp"
#include "order/pass_manager.hpp"
#include "order/phases.hpp"
#include "order/stepping.hpp"

namespace logstruct::order {
namespace {

trace::Trace small_jacobi() {
  apps::Jacobi2DConfig cfg;
  cfg.chares_x = 3;
  cfg.chares_y = 3;
  cfg.num_pes = 3;
  cfg.iterations = 2;
  return apps::run_jacobi2d(cfg);
}

TEST(PassManager, RunsInRegistrationOrderAndRecords) {
  trace::Trace t = small_jacobi();
  OrderContext ctx(t, Options::charm());

  std::vector<std::string> ran;
  PassManager pm;
  pm.add({.name = "a", .run = [&](OrderContext&) { ran.push_back("a"); }});
  pm.add({.name = "skipped",
          .run = [&](OrderContext&) { ran.push_back("skipped"); },
          .enabled = false});
  pm.add({.name = "b", .run = [&](OrderContext&) { ran.push_back("b"); }});
  pm.run(ctx);

  EXPECT_EQ(ran, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(pm.records().size(), 3u);
  EXPECT_EQ(pm.records()[0].name, "a");
  EXPECT_TRUE(pm.records()[0].ran);
  EXPECT_EQ(pm.records()[1].name, "skipped");
  EXPECT_FALSE(pm.records()[1].ran);
  EXPECT_EQ(pm.records()[2].name, "b");
  for (const PassRecord& r : pm.records()) EXPECT_GE(r.seconds, 0.0);
}

TEST(PassManager, RecordsPartitionCountOncePgExists) {
  trace::Trace t = small_jacobi();
  Options opts = Options::charm();
  OrderContext ctx(t, opts);
  run_partition_pipeline(ctx, nullptr, nullptr);
  ASSERT_TRUE(ctx.has_pg());
  EXPECT_GT(ctx.phases.num_phases(), 0);
}

TEST(PassManager, PartitionRecordsCoverEveryRegisteredPass) {
  trace::Trace t = small_jacobi();
  std::vector<PassRecord> records;
  PhaseResult phases = find_phases(t, Options::charm().partition, nullptr,
                                   &records);
  EXPECT_GT(phases.num_phases(), 0);
  const std::vector<std::string> expected = {
      "initial",          "dependency_merge",      "repair",
      "neighbor_serial",  "infer_source_order",    "enforce_leap_property",
      "enforce_chare_paths", "finalize"};
  ASSERT_EQ(records.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(records[i].name, expected[i]);
    EXPECT_TRUE(records[i].ran) << expected[i];
    EXPECT_GE(records[i].alloc_bytes, 0) << expected[i];
  }
  // With the counting operator new linked, the initial partition pass
  // builds the whole PartitionGraph and must show real allocation.
  if (obs::alloc_hook_active()) {
    EXPECT_GT(records[0].alloc_bytes, 0);
  }
}

TEST(PassManager, DisabledPassesStillRecordedUnderAblations) {
  trace::Trace t = small_jacobi();
  std::vector<PassRecord> records;
  (void)find_phases(t, Options::mpi_baseline13().partition, nullptr,
                    &records);
  bool saw_disabled = false;
  for (const PassRecord& r : records)
    if (!r.ran) saw_disabled = true;
  EXPECT_TRUE(saw_disabled)
      << "mpi_baseline13 must express ablations as disabled passes";
}

/// The debug invariant checker (DAG-ness, event coverage, leap property,
/// chare paths after each pass) must pass on real traces — including the
/// ablation option sets — and not change the result.
TEST(PassManager, InvariantCheckedRunMatchesPlainRun) {
  struct Case {
    const char* name;
    Options opts;
  };
  const Case cases[] = {
      {"charm", Options::charm()},
      {"charm_no_inference", Options::charm_no_inference()},
      {"mpi_baseline13", Options::mpi_baseline13()},
  };
  trace::Trace t = small_jacobi();
  for (const Case& c : cases) {
    LogicalStructure plain = extract_structure(t, c.opts);
    Options checked = c.opts;
    checked.partition.check_passes = true;
    LogicalStructure verified = extract_structure(t, checked);
    EXPECT_EQ(plain.num_phases(), verified.num_phases()) << c.name;
    EXPECT_EQ(plain.global_step, verified.global_step) << c.name;
  }
}

TEST(PassManager, InvariantCheckedRunOnLulesh) {
  apps::LuleshConfig cfg;
  cfg.iterations = 2;
  trace::Trace t = apps::run_lulesh_charm(cfg);
  Options opts = Options::charm();
  opts.partition.check_passes = true;
  LogicalStructure ls = extract_structure(t, opts);
  EXPECT_GT(ls.num_phases(), 0);
}

/// A counter created mid-run (after arm()) must reach a later crash dump:
/// the manager re-captures the recorder's metric table after each pass.
TEST(PassManager, PassBoundaryRefreshesArmedFlightRecorder) {
  obs::FlightRecorder& rec = obs::FlightRecorder::global();
  rec.arm(testing::TempDir() + "pass_manager_flightrec.json");
  const char* name = "order/test/created_after_arm";
  auto dumped_counters = [&rec] {
    obs::json::Value v;
    std::string err;
    EXPECT_TRUE(obs::json::parse(rec.to_json(), v, &err)) << err;
    return v.at("counters");
  };

  trace::Trace t = small_jacobi();
  OrderContext ctx(t, Options::charm());
  PassManager pm;
  pm.add({.name = "creates_counter", .run = [&](OrderContext&) {
            obs::Registry::global().counter(name).add(7);
            EXPECT_FALSE(dumped_counters().has(name));
          }});
  pm.run(ctx);
  rec.disarm();

  const obs::json::Value counters = dumped_counters();
  ASSERT_TRUE(counters.has(name));
  EXPECT_EQ(counters.at(name).as_int(), 7);
}

TEST(OrderContext, LeapCacheInvalidatesOnEpoch) {
  trace::Trace t = small_jacobi();
  OrderContext ctx(t, Options::charm());
  run_partition_pipeline(ctx, nullptr, nullptr);

  const auto& first = ctx.leaps();
  ASSERT_EQ(first.size(),
            static_cast<std::size_t>(ctx.pg().num_partitions()));
  // Same epoch: the cached vector is returned (same object, same values).
  EXPECT_EQ(&ctx.leaps(), &first);

  std::uint64_t epoch = ctx.pg().epoch();
  // A structural mutation moves the epoch; the cache must recompute and
  // still agree with a fresh leap computation.
  if (ctx.pg().num_partitions() >= 2) {
    std::vector<std::pair<PartId, PartId>> extra = {{0, 1}};
    ctx.pg().add_edges_bulk(extra);
    EXPECT_GT(ctx.pg().epoch(), epoch);
    const auto& after = ctx.leaps();
    EXPECT_EQ(after.size(),
              static_cast<std::size_t>(ctx.pg().num_partitions()));
  }
}

TEST(OrderContext, UnitsComputedOncePerFlavor) {
  trace::Trace t = small_jacobi();
  OrderContext ctx(t, Options::charm());
  const BlockUnits& raw = ctx.units(false);
  const BlockUnits& absorbed = ctx.units(true);
  EXPECT_EQ(&ctx.units(false), &raw);
  EXPECT_EQ(&ctx.units(true), &absorbed);
  EXPECT_EQ(raw.unit_of_event.size(),
            static_cast<std::size_t>(t.num_events()));
}

TEST(OrderContext, ScratchBuffersComeBackCleared) {
  trace::Trace t = small_jacobi();
  OrderContext ctx(t, Options::charm());
  auto& pairs = ctx.scratch_pairs();
  pairs.push_back({0, 1});
  EXPECT_TRUE(ctx.scratch_pairs().empty());
  auto& edges = ctx.scratch_edges();
  edges.push_back({2, 3});
  EXPECT_TRUE(ctx.scratch_edges().empty());
  // Distinct buffers: holding both at once is allowed.
  EXPECT_NE(&ctx.scratch_pairs(), &ctx.scratch_edges());
}

}  // namespace
}  // namespace logstruct::order
