/// The ingest path sorts only what is out of order: repair()'s per-PE
/// overlap pass and Trace::freeze() check each group their counting
/// scatter built and sort it only when it is not already in (begin, id)
/// or (time, id) order. These tests pin the fast path's counters at 0
/// on traces the simulators emit and on a LULESH `.lstrace` read back,
/// and check that ids listed out of time order still come out exactly
/// as a reference std::stable_sort of the id-ordered lists.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "../order/golden_fixtures.hpp"
#include "obs/registry.hpp"
#include "trace/diagnostics.hpp"
#include "trace/io.hpp"
#include "trace/repair.hpp"
#include "trace/validate.hpp"

namespace logstruct::trace {
namespace {

/// Value of a registry counter; differences of two reads count what a
/// call in between added.
std::int64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

struct SortCounts {
  std::int64_t repair = 0;
  std::int64_t freeze = 0;
};

template <typename Fn>
SortCounts counted(Fn&& fn) {
  const std::int64_t repair0 = counter("trace/repair/sorted_proc_runs");
  const std::int64_t freeze0 = counter("trace/freeze/sorted_groups");
  fn();
  return {counter("trace/repair/sorted_proc_runs") - repair0,
          counter("trace/freeze/sorted_groups") - freeze0};
}

TEST(SortFastPath, NothingSortedOnSimulatedAndReadBackTraces) {
#if LOGSTRUCT_OBS
  for (const auto& g : order::golden::kGoldens) {
    SCOPED_TRACE(g.name);
    const SortCounts built = counted([&] { (void)g.make(); });
    EXPECT_EQ(built.repair, 0);
    EXPECT_EQ(built.freeze, 0);
  }

  const std::string path = ::testing::TempDir() + "/sort_fast_path.lstrace";
  const Trace lulesh = order::golden::lulesh_charm_small();
  RecoveryReport save_report;
  ASSERT_TRUE(save_trace(lulesh, path, save_report));
  Trace back;
  RecoveryReport load_report;
  const SortCounts read = counted([&] {
    back = load_trace(path, ReadOptions{}, load_report);
  });
  std::remove(path.c_str());
  EXPECT_TRUE(load_report.empty()) << load_report.to_string();
  EXPECT_EQ(back.num_events(), lulesh.num_events());
  EXPECT_EQ(read.repair, 0);
  EXPECT_EQ(read.freeze, 0);
#else
  GTEST_SKIP() << "built with LOGSTRUCT_OBS=0: the counters are compiled out";
#endif
}

/// Two procs, one chare each; blocks and events listed out of time
/// order, with a time tie in block 4. No block overlaps another, so
/// repair() reports nothing.
RawTrace out_of_order_raw() {
  RawTrace raw;
  raw.num_procs = 2;
  raw.chares.push_back({0, ChareInfo{"c0", kNone, -1, 0, false}});
  raw.chares.push_back({1, ChareInfo{"c1", kNone, -1, 1, false}});
  raw.entries.push_back({0, EntryInfo{"e0", false, -1, {}}});
  // id, chare, proc, entry, begin, end, has_end
  raw.blocks.push_back({0, 0, 0, 0, 300, 400, true});
  raw.blocks.push_back({1, 1, 1, 0, 100, 200, true});
  raw.blocks.push_back({2, 0, 0, 0, 0, 100, true});
  raw.blocks.push_back({3, 1, 1, 0, 0, 50, true});
  raw.blocks.push_back({4, 0, 0, 0, 150, 250, true});
  // id, kind, time, block, partner
  raw.events.push_back({0, EventKind::Send, 350, 0, kNone});
  raw.events.push_back({1, EventKind::Send, 310, 0, kNone});
  raw.events.push_back({2, EventKind::Send, 60, 2, kNone});
  raw.events.push_back({3, EventKind::Send, 20, 2, kNone});
  raw.events.push_back({4, EventKind::Send, 150, 1, kNone});
  raw.events.push_back({5, EventKind::Send, 40, 3, kNone});
  raw.events.push_back({6, EventKind::Send, 200, 4, kNone});
  raw.events.push_back({7, EventKind::Send, 160, 4, kNone});
  raw.events.push_back({8, EventKind::Send, 160, 4, kNone});
  return raw;
}

/// The ids in [0, n) for which `in_group` holds, in id order, then
/// stable-sorted by `key`: the (key, id) order the freeze promises.
template <typename InGroup, typename Key>
std::vector<std::int32_t> reference_group(std::int32_t n, InGroup&& in_group,
                                          Key&& key) {
  std::vector<std::int32_t> ids;
  for (std::int32_t i = 0; i < n; ++i)
    if (in_group(i)) ids.push_back(i);
  std::stable_sort(ids.begin(), ids.end(),
                   [&](std::int32_t a, std::int32_t b) {
                     return key(a) < key(b);
                   });
  return ids;
}

template <typename Span>
std::vector<std::int32_t> to_vector(const Span& span) {
  return {span.begin(), span.end()};
}

TEST(SortFastPath, OutOfOrderIdsMatchStableSortReference) {
  RawTrace raw = out_of_order_raw();
  RecoveryReport report;
  Trace t;
  const SortCounts counts = counted([&] {
    repair(raw, report);
    t = build_trace(std::move(raw), 1);
  });
  EXPECT_TRUE(report.empty()) << report.to_string();
  EXPECT_TRUE(validate(t).empty());
#if LOGSTRUCT_OBS
  EXPECT_EQ(counts.repair, 2);  // both procs' runs, in the one sweep
  // Per-chare blocks (2), per-proc blocks (2), per-chare events (2) and
  // the per-block event lists of blocks 0, 2 and 4 (3).
  EXPECT_EQ(counts.freeze, 9);
#else
  (void)counts;
#endif

  const auto begin_of = [&](std::int32_t b) { return t.block(b).begin; };
  const auto time_of = [&](std::int32_t e) { return t.event(e).time; };
  for (ChareId c = 0; c < t.num_chares(); ++c) {
    SCOPED_TRACE("chare " + std::to_string(c));
    EXPECT_EQ(to_vector(t.blocks_of_chare(c)),
              reference_group(
                  t.num_blocks(),
                  [&](std::int32_t b) { return t.block(b).chare == c; },
                  begin_of));
    EXPECT_EQ(to_vector(t.events_of_chare(c)),
              reference_group(
                  t.num_events(),
                  [&](std::int32_t e) { return t.event(e).chare == c; },
                  time_of));
  }
  for (ProcId p = 0; p < t.num_procs(); ++p) {
    SCOPED_TRACE("proc " + std::to_string(p));
    EXPECT_EQ(to_vector(t.blocks_of_proc(p)),
              reference_group(
                  t.num_blocks(),
                  [&](std::int32_t b) { return t.block(b).proc == p; },
                  begin_of));
  }
  for (BlockId b = 0; b < t.num_blocks(); ++b) {
    SCOPED_TRACE("block " + std::to_string(b));
    EXPECT_EQ(to_vector(t.events_of_block(b)),
              reference_group(
                  t.num_events(),
                  [&](std::int32_t e) { return t.event(e).block == b; },
                  time_of));
  }
  // The tie in block 4 keeps id order: 7 and 8 (t=160), then 6.
  EXPECT_EQ(to_vector(t.events_of_block(4)),
            (std::vector<std::int32_t>{7, 8, 6}));
}

}  // namespace
}  // namespace logstruct::trace
