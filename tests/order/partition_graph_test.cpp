#include "order/partition_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>

#include "order_fixtures.hpp"
#include "random_trace.hpp"
#include "trace/builder.hpp"
#include "trace/storage/block_cache.hpp"
#include "util/rng.hpp"

namespace logstruct::order {
namespace {

/// Four single-event partitions on four chares (one block each).
struct Fixture {
  trace::Trace trace;
  std::vector<trace::EventId> events;
  std::vector<trace::EventId> by_time;  ///< the trace's time order
};

Fixture make_four_events() {
  Fixture f;
  trace::TraceBuilder tb;
  trace::EntryId e = tb.add_entry("go");
  for (int i = 0; i < 4; ++i) {
    trace::ChareId c = tb.add_chare("c" + std::to_string(i));
    trace::BlockId b = tb.begin_block(c, 0, e, i * 10);
    f.events.push_back(tb.add_send(b, i * 10));
    tb.end_block(b, i * 10 + 5);
  }
  f.trace = tb.finish(1);
  f.by_time = f.trace.by_time();
  return f;
}

TEST(PartitionGraph, BuildAndQuery) {
  Fixture f = make_four_events();
  PartitionGraph pg(f.trace);
  for (int i = 0; i < 4; ++i)
    pg.add_partition({&f.events[static_cast<std::size_t>(i)], 1}, i % 2 == 0);
  pg.add_edge(0, 1);
  pg.add_edge(1, 2);
  pg.finalize(f.by_time);

  EXPECT_EQ(pg.num_partitions(), 4);
  EXPECT_TRUE(pg.runtime(0));
  EXPECT_FALSE(pg.runtime(1));
  EXPECT_EQ(pg.part_of(f.events[2]), 2);
  EXPECT_TRUE(pg.dag().has_edge(0, 1));
  ASSERT_EQ(pg.chares(0).size(), 1u);
}

TEST(PartitionGraph, ApplyMergesRelabelsEverything) {
  Fixture f = make_four_events();
  PartitionGraph pg(f.trace);
  for (int i = 0; i < 4; ++i)
    pg.add_partition({&f.events[static_cast<std::size_t>(i)], 1}, false);
  pg.add_edge(0, 1);
  pg.add_edge(2, 3);
  pg.finalize(f.by_time);

  std::vector<std::pair<PartId, PartId>> pairs{{0, 2}};
  EXPECT_TRUE(pg.apply_merges(pairs));
  EXPECT_EQ(pg.num_partitions(), 3);
  EXPECT_EQ(pg.part_of(f.events[0]), pg.part_of(f.events[2]));
  // Merged partition keeps both chares and both edges.
  PartId merged = pg.part_of(f.events[0]);
  EXPECT_EQ(pg.chares(merged).size(), 2u);
  EXPECT_EQ(pg.events(merged).size(), 2u);
  EXPECT_EQ(pg.dag().successors(merged).size(), 2u);
}

TEST(PartitionGraph, MergedEventsStayTimeSorted) {
  Fixture f = make_four_events();
  PartitionGraph pg(f.trace);
  for (int i = 0; i < 4; ++i)
    pg.add_partition({&f.events[static_cast<std::size_t>(i)], 1}, false);
  pg.finalize(f.by_time);
  std::vector<std::pair<PartId, PartId>> pairs{{3, 0}, {0, 2}};
  pg.apply_merges(pairs);
  PartId merged = pg.part_of(f.events[0]);
  auto events = pg.events(merged);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(f.trace.event(events[i - 1]).time,
              f.trace.event(events[i]).time);
  }
}

TEST(PartitionGraph, CycleMergeCollapsesScc) {
  Fixture f = make_four_events();
  PartitionGraph pg(f.trace);
  for (int i = 0; i < 4; ++i)
    pg.add_partition({&f.events[static_cast<std::size_t>(i)], 1}, false);
  pg.add_edge(0, 1);
  pg.add_edge(1, 2);
  pg.add_edge(2, 0);  // cycle 0-1-2
  pg.add_edge(2, 3);
  pg.finalize(f.by_time);

  EXPECT_TRUE(pg.cycle_merge());
  EXPECT_EQ(pg.num_partitions(), 2);
  EXPECT_EQ(pg.part_of(f.events[0]), pg.part_of(f.events[1]));
  EXPECT_EQ(pg.part_of(f.events[1]), pg.part_of(f.events[2]));
  EXPECT_NE(pg.part_of(f.events[0]), pg.part_of(f.events[3]));
  // Edge to 3 survives, graph is a DAG.
  PartId merged = pg.part_of(f.events[0]);
  EXPECT_TRUE(pg.dag().has_edge(merged, pg.part_of(f.events[3])));
}

TEST(PartitionGraph, CycleMergeNoOpOnDag) {
  Fixture f = make_four_events();
  PartitionGraph pg(f.trace);
  for (int i = 0; i < 4; ++i)
    pg.add_partition({&f.events[static_cast<std::size_t>(i)], 1}, false);
  pg.add_edge(0, 1);
  pg.finalize(f.by_time);
  EXPECT_FALSE(pg.cycle_merge());
  EXPECT_EQ(pg.num_partitions(), 4);
}

TEST(PartitionGraph, RuntimeFlagPropagatesThroughMerge) {
  Fixture f = make_four_events();
  PartitionGraph pg(f.trace);
  pg.add_partition({&f.events[0], 1}, false);
  pg.add_partition({&f.events[1], 1}, true);
  pg.add_partition({&f.events[2], 1}, false);
  pg.add_partition({&f.events[3], 1}, false);
  pg.add_edge(0, 1);
  pg.add_edge(1, 0);  // app-runtime cycle
  pg.finalize(f.by_time);
  pg.cycle_merge();
  EXPECT_TRUE(pg.runtime(pg.part_of(f.events[0])));
  EXPECT_FALSE(pg.runtime(pg.part_of(f.events[2])));
}

TEST(PartitionGraph, FirstEventOfChare) {
  Fixture f = make_four_events();
  PartitionGraph pg(f.trace);
  for (int i = 0; i < 4; ++i)
    pg.add_partition({&f.events[static_cast<std::size_t>(i)], 1}, false);
  pg.finalize(f.by_time);
  std::vector<std::pair<PartId, PartId>> pairs{{0, 1}};
  pg.apply_merges(pairs);
  PartId merged = pg.part_of(f.events[0]);
  EXPECT_EQ(pg.first_event_of_chare(merged, f.trace.event(f.events[1]).chare),
            f.events[1]);
  EXPECT_EQ(pg.first_event_of_chare(merged, f.trace.event(f.events[3]).chare),
            trace::kNone);
}

TEST(PartitionGraph, MergesAppliedCounter) {
  Fixture f = make_four_events();
  PartitionGraph pg(f.trace);
  for (int i = 0; i < 4; ++i)
    pg.add_partition({&f.events[static_cast<std::size_t>(i)], 1}, false);
  pg.finalize(f.by_time);
  EXPECT_EQ(pg.merges_applied(), 0);
  std::vector<std::pair<PartId, PartId>> pairs{{0, 1}, {2, 3}};
  pg.apply_merges(pairs);
  EXPECT_EQ(pg.merges_applied(), 2);
}

/// Regression for the lazy-DAG hazard: dag() used to materialize into a
/// mutable member with no synchronization, so the FIRST dag() call racing
/// against other readers corrupted the adjacency build. Hammer a freshly
/// dirtied graph from many threads; under TSan this also proves the
/// double-checked guard publishes the finished DAG correctly.
TEST(PartitionGraph, ConcurrentDagReadersAfterDirty) {
  Fixture f = make_four_events();
  for (int round = 0; round < 50; ++round) {
    PartitionGraph pg(f.trace);
    for (int i = 0; i < 4; ++i)
      pg.add_partition({&f.events[static_cast<std::size_t>(i)], 1}, false);
    pg.add_edge(0, 1);
    pg.add_edge(1, 2);
    pg.add_edge(2, 3);
    // finalize() leaves the DAG dirty: the readers race to build it.
    pg.finalize(f.by_time);

    constexpr int kReaders = 8;
    std::atomic<int> ok{0};
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&pg, &ok] {
        const graph::Digraph& dag = pg.dag();
        if (dag.num_nodes() == 4 && dag.has_edge(0, 1) &&
            dag.has_edge(1, 2) && dag.has_edge(2, 3))
          ok.fetch_add(1, std::memory_order_relaxed);
      });
    }
    for (std::thread& th : readers) th.join();
    ASSERT_EQ(ok.load(), kReaders) << "round " << round;
  }
}

/// Brute-force reference for one partition graph state: events(p) are the
/// events with part_of == p in Trace::before order, chares(p) their sorted
/// unique chares, and runtime(p) the OR of the runtime flags of the
/// initial partitions merged into p.
void expect_brute_force_membership(const PartitionGraph& pg,
                                   const std::vector<PartId>& init_part,
                                   const std::vector<bool>& init_runtime,
                                   const std::string& label) {
  const trace::Trace& tr = pg.trace();
  const auto np = static_cast<std::size_t>(pg.num_partitions());
  std::vector<std::vector<trace::EventId>> events(np);
  std::vector<bool> runtime(np, false);
  for (trace::EventId e = 0; e < tr.num_events(); ++e) {
    const PartId p = pg.part_of(e);
    ASSERT_GE(p, 0) << label;
    ASSERT_LT(static_cast<std::size_t>(p), np) << label;
    events[static_cast<std::size_t>(p)].push_back(e);
    if (init_runtime[static_cast<std::size_t>(
            init_part[static_cast<std::size_t>(e)])])
      runtime[static_cast<std::size_t>(p)] = true;
  }
  for (std::size_t p = 0; p < np; ++p) {
    auto& want = events[p];
    std::sort(want.begin(), want.end(),
              [&tr](trace::EventId a, trace::EventId b) {
                return tr.before(a, b);
              });
    std::vector<trace::ChareId> chares;
    for (trace::EventId e : want) chares.push_back(tr.event(e).chare);
    std::sort(chares.begin(), chares.end());
    chares.erase(std::unique(chares.begin(), chares.end()), chares.end());
    const auto pid = static_cast<PartId>(p);
    const auto got_events = pg.events(pid);
    const auto got_chares = pg.chares(pid);
    EXPECT_EQ(std::vector<trace::EventId>(got_events.begin(),
                                          got_events.end()),
              want)
        << label << " partition " << p;
    EXPECT_EQ(std::vector<trace::ChareId>(got_chares.begin(),
                                          got_chares.end()),
              chares)
        << label << " partition " << p;
    EXPECT_EQ(pg.runtime(pid), runtime[p]) << label << " partition " << p;
  }
}

/// Random batches of apply_merges and cycle_merge over generated traces,
/// on both storage backends, each step checked against the brute-force
/// reference. Initial partitions are random runs of each chare's events,
/// so merged groups interleave in time across chares.
TEST(PartitionGraph, MergesMatchBruteForceOnBothBackends) {
  std::int64_t merged = 0;
  for (trace::storage::BackendKind kind :
       {trace::storage::BackendKind::Mem,
        trace::storage::BackendKind::Blocked}) {
    trace::storage::StorageOptions opts = trace::storage::default_options();
    opts.kind = kind;
    opts.block_bytes = 4096;
    trace::storage::ScopedStorageOptions scope(opts);
    std::vector<trace::Trace> traces;
    for (std::uint64_t seed = 1; seed <= 24; ++seed)
      traces.push_back(testing::random_trace(seed));
    traces.push_back(testing::skewed(testing::make_ring_trace(12).trace,
                                     150, 3));
    for (std::size_t t = 0; t < traces.size(); ++t) {
      const trace::Trace& tr = traces[t];
      ASSERT_EQ(tr.storage_backend(), kind);
      util::Rng rng(0xD1FFULL + t);
      const std::vector<trace::EventId> by_time = tr.by_time();
      PartitionGraph pg(tr);
      std::vector<PartId> init_part(
          static_cast<std::size_t>(tr.num_events()), -1);
      std::vector<bool> init_runtime;
      for (trace::ChareId c = 0; c < tr.num_chares(); ++c) {
        const auto list = tr.events_of_chare(c);
        for (std::size_t i = 0; i < list.size();) {
          const std::size_t j = std::min<std::size_t>(
              list.size(), i + 1 + rng.uniform(3));
          const bool runtime = rng.uniform(4) == 0;
          const PartId p = pg.add_partition(
              std::vector<trace::EventId>(list.begin() + i, list.begin() + j),
              runtime);
          for (std::size_t k = i; k < j; ++k)
            init_part[static_cast<std::size_t>(list[k])] = p;
          init_runtime.push_back(runtime);
          i = j;
        }
      }
      const PartId n0 = static_cast<PartId>(init_runtime.size());
      for (std::uint64_t k = 0, m = rng.uniform(2 * n0); k < m; ++k)
        pg.add_edge(static_cast<PartId>(rng.uniform(n0)),
                    static_cast<PartId>(rng.uniform(n0)));
      pg.finalize(by_time);
      const std::string base = "trace " + std::to_string(t) + " backend " +
                               std::to_string(static_cast<int>(kind));
      expect_brute_force_membership(pg, init_part, init_runtime,
                                    base + " finalize");
      for (int step = 0; step < 8 && pg.num_partitions() > 1; ++step) {
        const auto np = static_cast<std::uint64_t>(pg.num_partitions());
        std::vector<std::pair<PartId, PartId>> batch(1 + rng.uniform(4));
        for (auto& [u, v] : batch) {
          u = static_cast<PartId>(rng.uniform(np));
          v = static_cast<PartId>(rng.uniform(np));
        }
        if (rng.uniform(2) == 0) {
          pg.apply_merges(batch);
        } else {
          pg.add_edges_bulk(batch);
          pg.cycle_merge();
        }
        expect_brute_force_membership(
            pg, init_part, init_runtime,
            base + " step " + std::to_string(step));
      }
      merged += pg.merges_applied();
    }
  }
  EXPECT_GT(merged, 100);
}

/// Membership is rebuilt from the time order handed to finalize(), so a
/// merge compares no timestamps: on blocked storage, one apply_merges +
/// cycle_merge costs one pass over the per-chare event lists in block
/// cache lookups, however the merged events interleave in time across
/// event-column blocks.
TEST(PartitionGraph, RelabelDoesNoByTimeLookupsOnBlocked) {
  trace::storage::StorageOptions opts = trace::storage::default_options();
  opts.kind = trace::storage::BackendKind::Blocked;
  opts.block_bytes = 4096;
  trace::storage::ScopedStorageOptions scope(opts);

  // Chare a's events take ids [0, n) at times 4i, chare b's ids [n, 2n) at
  // 4i + 2: each (a_i, b_i) pair is adjacent in time, blocks apart in ids.
  constexpr int kPerChare = 400;
  trace::TraceBuilder tb;
  const trace::EntryId entry = tb.add_entry("go");
  const trace::ChareId a = tb.add_chare("a", trace::kNone, -1, 0);
  const trace::ChareId b = tb.add_chare("b", trace::kNone, -1, 1);
  auto record = [&](trace::ChareId c, trace::ProcId proc,
                    trace::TimeNs offset) {
    std::vector<trace::EventId> out;
    for (int i = 0; i < kPerChare; ++i) {
      const trace::TimeNs t = 4 * i + offset;
      const trace::BlockId blk = tb.begin_block(c, proc, entry, t);
      out.push_back(tb.add_send(blk, t));
      tb.end_block(blk, t + 1);
    }
    return out;
  };
  const std::vector<trace::EventId> ev_a = record(a, 0, 0);
  const std::vector<trace::EventId> ev_b = record(b, 1, 2);
  const trace::Trace tr = tb.finish(2);
  ASSERT_EQ(tr.storage_backend(), trace::storage::BackendKind::Blocked);
  const std::size_t event_blocks =
      (static_cast<std::size_t>(tr.num_events()) * sizeof(trace::Event) +
       4095) / 4096;
  ASSERT_GE(event_blocks, 4u);
  const std::size_t chare_event_blocks =
      (static_cast<std::size_t>(tr.num_events()) * sizeof(trace::EventId) +
       4095) / 4096;

  const std::vector<trace::EventId> by_time = tr.by_time();
  PartitionGraph pg(tr);
  for (trace::EventId e = 0; e < tr.num_events(); ++e)
    pg.add_partition({&e, 1}, false);
  for (std::size_t i = 1; i < ev_a.size(); ++i)  // a DAG: no cycle to merge
    pg.add_edge(pg.part_of(ev_a[i - 1]), pg.part_of(ev_a[i]));
  pg.finalize(by_time);
  std::vector<std::pair<PartId, PartId>> pairs;
  for (int i = 0; i < kPerChare; ++i)
    pairs.emplace_back(pg.part_of(ev_a[static_cast<std::size_t>(i)]),
                       pg.part_of(ev_b[static_cast<std::size_t>(i)]));

  auto& cache = trace::storage::BlockCache::global();
  const auto before = cache.stats();
  ASSERT_TRUE(pg.apply_merges(pairs));
  EXPECT_FALSE(pg.cycle_merge());
  const auto after = cache.stats();
  const std::uint64_t lookups =
      (after.hits - before.hits) + (after.misses - before.misses);
  EXPECT_LE(lookups, static_cast<std::uint64_t>(tr.num_chares()) +
                         chare_event_blocks + 1);

  ASSERT_EQ(pg.num_partitions(), kPerChare);
  for (int i = 0; i < kPerChare; ++i) {
    const auto events =
        pg.events(pg.part_of(ev_a[static_cast<std::size_t>(i)]));
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0], ev_a[static_cast<std::size_t>(i)]);
    EXPECT_EQ(events[1], ev_b[static_cast<std::size_t>(i)]);
  }
}

}  // namespace
}  // namespace logstruct::order
