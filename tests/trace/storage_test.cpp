/// Unit tests for the out-of-core storage layer: the .lsblk container
/// (BlockStoreWriter/BlockStore), the global block cache, the blocked
/// Trace backend's equivalence with the mem backend, and a
/// concurrent-reader hammer (the TSan job runs it under
/// -fsanitize=thread with a tiny cache, so every shard lock and pin
/// path gets exercised under real contention).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <random>
#include <thread>
#include <vector>

#include <malloc.h>
#include <unistd.h>

#include "trace/builder.hpp"
#include "trace/storage/block_cache.hpp"
#include "trace/storage/block_store.hpp"
#include "trace/storage/blocked_trace.hpp"
#include "trace/storage/column.hpp"
#include "trace/storage/options.hpp"
#include "trace_fixtures.hpp"

namespace logstruct::trace::storage {
namespace {

std::string temp_path(const char* tag) {
  return ::testing::TempDir() + "ls_storage_" + tag + "_" +
         std::to_string(::getpid()) + ".lsblk";
}

/// Interleaved multi-column writes survive the round trip, with the
/// 4 KiB block floor forcing every column across many blocks.
TEST(BlockStore, MultiColumnRoundTrip) {
  const std::string path = temp_path("roundtrip");
  std::vector<std::int32_t> a(5000);
  std::vector<std::int64_t> b(3000);
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = static_cast<std::int32_t>(i * 7);
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = static_cast<std::int64_t>(i) * -3;
  {
    BlockStoreWriter w(path, 4096);
    w.set_elem_bytes(ColumnId::Events, 4);
    w.set_elem_bytes(ColumnId::Blocks, 8);
    // Interleave appends in uneven slices.
    std::size_t ia = 0, ib = 0;
    while (ia < a.size() || ib < b.size()) {
      std::size_t na = std::min<std::size_t>(700, a.size() - ia);
      if (na > 0) w.append(ColumnId::Events, a.data() + ia, na * 4);
      ia += na;
      std::size_t nb = std::min<std::size_t>(333, b.size() - ib);
      if (nb > 0) w.append(ColumnId::Blocks, b.data() + ib, nb * 8);
      ib += nb;
    }
    w.finish("meta-blob");
  }
  BlockStore store(path);
  EXPECT_EQ(store.metadata(), "meta-blob");
  EXPECT_EQ(store.column_bytes(ColumnId::Events), a.size() * 4);
  EXPECT_EQ(store.column_bytes(ColumnId::Blocks), b.size() * 8);
  EXPECT_GT(store.num_blocks(ColumnId::Events), 2u);

  BlockedColumn<std::int32_t> ca(&store, ColumnId::Events);
  BlockedColumn<std::int64_t> cb(&store, ColumnId::Blocks);
  ASSERT_EQ(ca.size(), a.size());
  ASSERT_EQ(cb.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(ca.get(i), a[i]);
  for (std::size_t i = 0; i < b.size(); ++i) ASSERT_EQ(cb.get(i), b[i]);
  std::remove(path.c_str());
}

/// pin() must serve spans that cross block boundaries (copying) and
/// spans inside one block (aliasing the cached buffer) identically.
TEST(BlockStore, PinAcrossBlockBoundary) {
  const std::string path = temp_path("pin");
  std::vector<std::int32_t> vals(4000);
  for (std::size_t i = 0; i < vals.size(); ++i)
    vals[i] = static_cast<std::int32_t>(i);
  {
    BlockStoreWriter w(path, 4096);  // 1024 i32 per block
    w.set_elem_bytes(ColumnId::Events, 4);
    w.append(ColumnId::Events, vals.data(), vals.size() * 4);
    w.finish("");
  }
  BlockStore store(path);
  BlockedColumn<std::int32_t> col(&store, ColumnId::Events);
  // Straddles the 1024-element block boundary.
  PinnedSpan<std::int32_t> span = col.pin(1000, 1100);
  ASSERT_EQ(span.size(), 100u);
  for (std::size_t i = 0; i < span.size(); ++i)
    EXPECT_EQ(span[i], static_cast<std::int32_t>(1000 + i));
  // Entirely inside one block.
  PinnedSpan<std::int32_t> inner = col.pin(10, 20);
  for (std::size_t i = 0; i < inner.size(); ++i)
    EXPECT_EQ(inner[i], static_cast<std::int32_t>(10 + i));
  // Chunked iteration covers everything exactly once, in order.
  std::size_t seen = 0;
  col.for_each_chunk([&](const std::int32_t* p, std::size_t n,
                         std::size_t base) {
    EXPECT_EQ(base, seen);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(p[i], static_cast<std::int32_t>(base + i));
    seen += n;
  });
  EXPECT_EQ(seen, vals.size());
  std::remove(path.c_str());
}

/// A tiny budget forces evictions, the counters record them, and a
/// pinned span stays valid after its block is evicted (the shared_ptr
/// is the pin). The hit comes from a block that is still cached but no
/// longer in the column's cursor slot: the cursor serves repeat reads of
/// its own block without asking the cache.
TEST(BlockCacheTest, EvictionStatsAndPinSafety) {
  const std::string path = temp_path("cache");
  std::vector<std::int32_t> vals(64 * 1024);  // 256 KiB = 64 blocks
  for (std::size_t i = 0; i < vals.size(); ++i)
    vals[i] = static_cast<std::int32_t>(i * 13);
  {
    BlockStoreWriter w(path, 4096);
    w.set_elem_bytes(ColumnId::Events, 4);
    w.append(ColumnId::Events, vals.data(), vals.size() * 4);
    w.finish("");
  }
  StorageOptions tiny = default_options();
  tiny.cache_bytes = 16 * 4096;  // 16 of 64 blocks fit
  ScopedStorageOptions scope(tiny);

  BlockStore store(path);
  BlockedColumn<std::int32_t> col(&store, ColumnId::Events);
  BlockCache::global().reset_stats();

  PinnedSpan<std::int32_t> pinned = col.pin(0, 1024);  // block 0
  // Sweep everything twice: the second pass re-misses what was evicted.
  std::int64_t sum = 0;
  for (int pass = 0; pass < 2; ++pass)
    for (std::size_t i = 0; i < vals.size(); i += 512)
      sum += col.get(i);
  // The sweep left block 63 in the cursor; block 62 is the newest entry
  // of its shard (one block per shard), so this read is a cache hit.
  BlockCache::Stats stats = BlockCache::global().stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(col.get(62 * 1024), static_cast<std::int32_t>(62 * 1024 * 13));
  stats = BlockCache::global().stats();
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_NE(sum, 0);
  // The pinned buffer must still read correctly even though block 0 was
  // evicted from the cache long ago.
  for (std::size_t i = 0; i < pinned.size(); ++i)
    ASSERT_EQ(pinned[i], static_cast<std::int32_t>(i * 13));
  std::remove(path.c_str());
}

/// A store whose kNumColumns columns each hold `blocks` full 4 KiB blocks
/// of i32 (1024 per block); element i of column c is c * 1'000'000 + i.
std::string write_every_column(const char* tag, std::size_t blocks) {
  const std::string path = temp_path(tag);
  BlockStoreWriter w(path, 4096);
  std::vector<std::int32_t> vals(blocks * 1024);
  for (std::uint32_t c = 0; c < kNumColumns; ++c) {
    for (std::size_t i = 0; i < vals.size(); ++i)
      vals[i] = static_cast<std::int32_t>(c * 1'000'000 + i);
    w.set_elem_bytes(static_cast<ColumnId>(c), 4);
    w.append(static_cast<ColumnId>(c), vals.data(), vals.size() * 4);
  }
  w.finish("");
  return path;
}

/// Interleaved get() scans over all twelve columns keep one cursor each:
/// the second read of a block never goes back to the cache, so the cache
/// sees exactly one lookup per distinct block read.
TEST(BlockedColumnCursor, OneSlotPerColumn) {
  constexpr std::size_t kBlocks = 4;
  const std::string path = write_every_column("cursor", kBlocks);
  StorageOptions roomy = default_options();
  roomy.cache_bytes = 0;  // unbounded: count lookups, not evictions
  ScopedStorageOptions scope(roomy);
  {
    BlockStore store(path);
    std::vector<BlockedColumn<std::int32_t>> cols;
    for (std::uint32_t c = 0; c < kNumColumns; ++c)
      cols.emplace_back(&store, static_cast<ColumnId>(c));
    BlockCache::global().reset_stats();
    for (std::size_t blk = 0; blk < kBlocks; ++blk)
      for (std::size_t i : {blk * 1024, blk * 1024 + 7})
        for (std::uint32_t c = 0; c < kNumColumns; ++c)
          ASSERT_EQ(cols[c].get(i),
                    static_cast<std::int32_t>(c * 1'000'000 + i));
    const BlockCache::Stats stats = BlockCache::global().stats();
    EXPECT_EQ(stats.hits + stats.misses, kNumColumns * kBlocks);
  }
  std::remove(path.c_str());
}

/// Single-block pins share the cursor slot with get(): an events_of_block
/// sweep over every serial block reaches the cache about once per column
/// block it touches (BlockEvBegin and BlockEvents), not once per serial
/// block. Two events per serial block keep every range inside one column
/// block. A span pinned before the cursor moved on stays valid after a
/// starved cache evicted its block.
TEST(BlockedColumnCursor, SingleBlockPinUsesCursor) {
  constexpr int kBlocks = 3000;
  auto build = [] {
    TraceBuilder tb;
    const ChareId c = tb.add_chare("solo");
    const EntryId e = tb.add_entry("run");
    for (int i = 0; i < kBlocks; ++i) {
      const BlockId b = tb.begin_block(c, 0, e, i * 10);
      tb.add_send(b, i * 10 + 1);
      tb.add_send(b, i * 10 + 2);
      tb.end_block(b, i * 10 + 3);
    }
    return tb.finish(1);
  };
  StorageOptions opts = default_options();
  opts.kind = BackendKind::Mem;
  Trace mem;
  {
    ScopedStorageOptions scope(opts);
    mem = build();
  }
  opts.kind = BackendKind::Blocked;
  opts.block_bytes = 4096;
  opts.cache_bytes = 16 * 4096;  // one block per shard
  ScopedStorageOptions scope(opts);
  const Trace t = build();
  ASSERT_EQ(t.storage_backend(), BackendKind::Blocked);

  const PinnedSpan<EventId> first = t.events_of_block(0);
  BlockCache::global().reset_stats();
  for (BlockId b = 0; b < t.num_blocks(); ++b) {
    const auto got = t.events_of_block(b);
    const auto want = mem.events_of_block(b);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "block " << b;
  }
  const BlockCache::Stats stats = BlockCache::global().stats();
  const std::uint64_t begin_blocks = (kBlocks + 1 + 511) / 512;
  const std::uint64_t event_blocks = (2 * kBlocks + 1023) / 1024;
  EXPECT_LE(stats.hits + stats.misses, begin_blocks + event_blocks + 2);

  // Walking the event column (far more blocks than shards) replaces
  // every shard's one block, so block 0 of BlockEvents is evicted and
  // only `first` still holds it.
  TimeNs sum = 0;
  for (EventId e = 0; e < t.num_events(); ++e) sum += t.event(e).time;
  EXPECT_GT(sum, 0);
  EXPECT_GT(BlockCache::global().stats().evictions, 0u);
  const auto want = mem.events_of_block(0);
  ASSERT_TRUE(
      std::equal(first.begin(), first.end(), want.begin(), want.end()));
}

/// The shard is picked by column and block: a store's first blocks sit
/// in kNumColumns different shards, and one column's 16 consecutive
/// blocks in 16, so a budget of one block per shard holds them all.
TEST(BlockCacheTest, ShardsStripeByColumnAndBlock) {
  StorageOptions one_per_shard = default_options();
  one_per_shard.cache_bytes = 16 * 4096;
  ScopedStorageOptions scope(one_per_shard);
  BlockCache& cache = BlockCache::global();

  const std::string firsts = write_every_column("shard_cols", 1);
  {
    BlockStore store(firsts);
    cache.reset_stats();
    for (int pass = 0; pass < 2; ++pass)
      for (std::uint32_t c = 0; c < kNumColumns; ++c)
        cache.get(store, static_cast<ColumnId>(c), 0);
    EXPECT_EQ(cache.stats().misses, kNumColumns);
    EXPECT_EQ(cache.stats().evictions, 0u);
  }
  std::remove(firsts.c_str());

  const std::string run = write_every_column("shard_run", 16);
  {
    BlockStore store(run);
    cache.reset_stats();
    for (int pass = 0; pass < 2; ++pass)
      for (std::uint32_t blk = 0; blk < 16; ++blk)
        cache.get(store, ColumnId::BlockEvBegin, blk);
    EXPECT_EQ(cache.stats().misses, 16u);
    EXPECT_EQ(cache.stats().evictions, 0u);
  }
  std::remove(run.c_str());
}

/// Several events per block and per chare share a timestamp, blocks of
/// one chare and of one PE share begin times, ids interleave across
/// blocks, and each send fans out to several receivers: every frozen
/// ordering has to fall back on its (time, id) tie-break.
Trace make_tie_trace() {
  TraceBuilder tb;
  const EntryId entry = tb.add_entry("tick");
  std::vector<ChareId> chares;
  for (int c = 0; c < 4; ++c)
    chares.push_back(tb.add_chare("tie[" + std::to_string(c) + "]"));
  std::vector<EventId> prev_sends;
  for (TimeNs t = 0; t < 300; t += 100) {
    std::vector<BlockId> open;
    for (int rep = 0; rep < 2; ++rep)
      for (ChareId c : chares)
        open.push_back(tb.begin_block(c, c % 2, entry, t));
    for (std::size_t i = 0; i < open.size() && !prev_sends.empty(); ++i)
      tb.add_recv(open[i], t, prev_sends[i % prev_sends.size()]);
    std::vector<EventId> sends;
    for (const TimeNs dt : {10, 10, 5, 5})
      for (BlockId b : open) sends.push_back(tb.add_send(b, t + dt));
    for (BlockId b : open) tb.end_block(b, t + 50);
    prev_sends.assign(sends.begin(), sends.begin() + 2);
  }
  return tb.finish(/*num_procs=*/2);
}

/// Every send has the same receivers, in the same order, on both traces.
void expect_same_receivers(const Trace& mem, const Trace& blk) {
  ASSERT_EQ(mem.num_events(), blk.num_events());
  for (EventId e = 0; e < mem.num_events(); ++e) {
    if (mem.event(e).kind != EventKind::Send) continue;
    const auto rm = mem.receivers(e);
    const auto rb = blk.receivers(e);
    ASSERT_EQ(rm.size(), rb.size()) << "send " << e;
    for (std::size_t i = 0; i < rm.size(); ++i)
      EXPECT_EQ(rm[i], rb[i]) << "send " << e;
  }
}

/// The same builder calls frozen under both backends yield the same
/// structure hash and the same accessor-level views, on the mini trace
/// and on the tie-heavy one.
TEST(BlockedBackend, MatchesMemBackend) {
  StorageOptions opts = default_options();
  opts.kind = BackendKind::Mem;
  testing::MiniTrace mem;
  Trace mem_ties;
  {
    ScopedStorageOptions scope(opts);
    mem = testing::make_mini_trace();
    mem_ties = make_tie_trace();
  }
  const std::uint64_t mem_hash = trace_structure_hash(mem.trace);

  opts.kind = BackendKind::Blocked;
  opts.block_bytes = 4096;
  ScopedStorageOptions scope(opts);
  testing::MiniTrace blk = testing::make_mini_trace();
  const Trace blk_ties = make_tie_trace();

  ASSERT_EQ(blk.trace.storage_backend(), BackendKind::Blocked);
  EXPECT_EQ(trace_structure_hash(blk.trace), mem_hash);
  EXPECT_EQ(blk.trace.num_events(), mem.trace.num_events());
  EXPECT_EQ(blk.trace.end_time(), mem.trace.end_time());
  EXPECT_EQ(blk.trace.total_idle(0), mem.trace.total_idle(0));
  for (EventId e = 0; e < mem.trace.num_events(); ++e) {
    Event em = mem.trace.event(e);
    Event eb = blk.trace.event(e);
    EXPECT_EQ(em.time, eb.time);
    EXPECT_EQ(em.partner, eb.partner);
    EXPECT_EQ(em.block, eb.block);
  }
  expect_same_receivers(mem.trace, blk.trace);

  ASSERT_EQ(mem_ties.storage_backend(), BackendKind::Mem);
  ASSERT_EQ(blk_ties.storage_backend(), BackendKind::Blocked);
  EXPECT_EQ(trace_structure_hash(blk_ties), trace_structure_hash(mem_ties));
  EXPECT_GT(mem_ties.num_dependencies(), 8);
  expect_same_receivers(mem_ties, blk_ties);
}

/// write_blocked_file + open_blocked_trace round-trips the hash, from a
/// mem-backend source (the trace_convert tool's core path).
TEST(BlockedBackend, FileRoundTrip) {
  testing::MiniTrace m = testing::make_mini_trace();
  const std::string path = temp_path("file");
  write_blocked_file(m.trace, path, 4096);
  Trace back = open_blocked_trace(path);
  EXPECT_EQ(back.storage_backend(), BackendKind::Blocked);
  EXPECT_EQ(trace_structure_hash(back), trace_structure_hash(m.trace));
  EXPECT_EQ(back.num_events(), m.trace.num_events());
  EXPECT_EQ(back.chare(m.a).name, m.trace.chare(m.a).name);
  std::remove(path.c_str());
}

/// Empty vector fields — no collectives, idles, degraded chares or
/// when-lists — decode from the metadata blob without touching a null
/// buffer (the asan-ubsan job runs this with -fno-sanitize-recover).
TEST(BlockedBackend, EmptyVectorFieldsRoundTrip) {
  TraceBuilder tb;
  const ChareId c = tb.add_chare("solo");
  const EntryId e = tb.add_entry("run");
  const BlockId b = tb.begin_block(c, 0, e, 0);
  tb.end_block(b, 10);
  const Trace t = tb.finish(1);
  ASSERT_TRUE(t.collectives().empty());
  ASSERT_TRUE(t.idles().empty());
  ASSERT_EQ(t.num_degraded_chares(), 0);

  const std::string path = temp_path("empty_vecs");
  write_blocked_file(t, path, 4096);
  Trace back = open_blocked_trace(path);
  EXPECT_EQ(trace_structure_hash(back), trace_structure_hash(t));
  EXPECT_TRUE(back.collectives().empty());
  EXPECT_TRUE(back.entry(e).when_entries.empty());
  EXPECT_EQ(back.num_blocks(), 1);
  std::remove(path.c_str());
}

/// Copies of a blocked Trace share the store; the copy stays readable
/// after the original dies.
TEST(BlockedBackend, CopyOutlivesOriginal) {
  StorageOptions opts = default_options();
  opts.kind = BackendKind::Blocked;
  ScopedStorageOptions scope(opts);
  Trace copy;
  std::uint64_t hash = 0;
  {
    testing::MiniTrace m = testing::make_mini_trace();
    hash = trace_structure_hash(m.trace);
    copy = m.trace;
  }
  EXPECT_EQ(trace_structure_hash(copy), hash);
}

#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
/// A blocked freeze frees the column vectors it spilled: the heap bytes
/// still in use afterwards are a small fraction of the event column.
/// (A sanitizer's allocator bypasses glibc's arenas, so under one the
/// check passes vacuously.)
TEST(BlockedBackend, FreezeReleasesSpilledVectors) {
  StorageOptions opts = default_options();
  opts.kind = BackendKind::Blocked;
  ScopedStorageOptions scope(opts);
  const auto in_use = [] {
    const struct mallinfo2 m = mallinfo2();
    return static_cast<std::int64_t>(m.uordblks + m.hblkhd);
  };
  constexpr int kEvents = 50000;
  const std::int64_t before = in_use();
  Trace t;
  {
    TraceBuilder tb;
    const ChareId c = tb.add_chare("solo");
    const EntryId e = tb.add_entry("run");
    for (int i = 0; i < kEvents; i += 10) {
      const BlockId b = tb.begin_block(c, 0, e, i);
      for (int j = 0; j < 10; ++j) tb.add_send(b, i + j);
      tb.end_block(b, i + 10);
    }
    t = tb.finish(1);
  }
  ASSERT_EQ(t.num_events(), kEvents);
  EXPECT_LT(in_use() - before,
            static_cast<std::int64_t>(kEvents * sizeof(Event) / 4));
}
#endif

/// Concurrent readers over one blocked trace with a tiny cache: every
/// thread hashes the full trace through get()/pin()/iteration paths and
/// must agree. Run under TSan in the blocked-storage CI job.
TEST(BlockedBackend, ConcurrentReaderHammer) {
  // A synthetic chain big enough to span many 4 KiB blocks.
  TraceBuilder tb;
  ChareId c0 = tb.add_chare("c0");
  ChareId c1 = tb.add_chare("c1");
  EntryId en = tb.add_entry("step");
  const int kRounds = 3000;
  EventId prev_send = kNone;
  for (int i = 0; i < kRounds; ++i) {
    ChareId c = (i % 2 == 0) ? c0 : c1;
    ProcId p = (i % 2 == 0) ? 0 : 1;
    BlockId b = tb.begin_block(c, p, en, i * 10);
    if (prev_send != kNone) tb.add_recv(b, i * 10, prev_send);
    prev_send = tb.add_send(b, i * 10 + 5);
    tb.end_block(b, i * 10 + 9);
  }

  StorageOptions opts = default_options();
  opts.kind = BackendKind::Blocked;
  opts.block_bytes = 4096;
  opts.cache_bytes = 8 * 4096;  // tiny: constant eviction under load
  ScopedStorageOptions scope(opts);
  Trace t = tb.finish(/*num_procs=*/2);
  ASSERT_EQ(t.storage_backend(), BackendKind::Blocked);

  const std::uint64_t expected = trace_structure_hash(t);
  std::vector<std::uint64_t> results(4, 0);
  std::vector<std::thread> threads;
  threads.reserve(results.size());
  for (std::size_t ti = 0; ti < results.size(); ++ti) {
    threads.emplace_back([&, ti] {
      std::uint64_t h = 0;
      for (int iter = 0; iter < 3; ++iter) {
        h ^= trace_structure_hash(t);
        // Random-access path on top of the sequential hash walk. Same
        // seed on every thread, so all threads must compute the same h.
        std::mt19937 rng(static_cast<unsigned>(iter));
        for (int k = 0; k < 500; ++k) {
          EventId e = static_cast<EventId>(rng() %
                                           static_cast<unsigned>(
                                               t.num_events()));
          h ^= static_cast<std::uint64_t>(t.event(e).time);
          if (t.event(e).kind == EventKind::Send)
            h ^= static_cast<std::uint64_t>(t.fanout(e).size());
        }
      }
      results[ti] = h;
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t ti = 1; ti < results.size(); ++ti)
    EXPECT_EQ(results[ti], results[0]);
  (void)expected;
}

}  // namespace
}  // namespace logstruct::trace::storage
