/// Cross-backend golden-structure matrix for the storage refactor.
///
/// Every golden workload (tests/order/golden_fixtures.hpp) must extract
/// to the recorded structure hash when its trace is frozen on the
/// blocked out-of-core backend — under a starved cache (constant
/// eviction) and an unbounded one, serial and threaded — and the
/// backend-independent trace_structure_hash must match the mem backend
/// bit-for-bit. This is the "no silent divergence" gate for the .lsblk
/// store: any dependency-row reordering, CSR off-by-one, or cache
/// corruption shows up as a hash mismatch on some cell of the matrix.
/// The metric kernels get the same gate over their output vectors.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <type_traits>
#include <vector>

#include "metrics/critical_path.hpp"
#include "metrics/duration.hpp"
#include "metrics/efficiency.hpp"
#include "metrics/idle.hpp"
#include "metrics/imbalance.hpp"
#include "metrics/lateness.hpp"
#include "metrics/windows.hpp"
#include "order/context.hpp"
#include "order/phases.hpp"
#include "order/validate.hpp"
#include "trace/sdag.hpp"
#include "trace/storage/block_cache.hpp"
#include "trace/storage/blocked_trace.hpp"
#include "trace/storage/options.hpp"
#include "trace/subblock.hpp"
#include "util/crc32c.hpp"
#include "golden_fixtures.hpp"

namespace logstruct::order {
namespace {

using golden::Fnv;
using golden::Golden;
using golden::kGoldens;
using golden::ScopedDefaultParallelism;
using golden::structure_hash;
using trace::storage::BackendKind;
using trace::storage::BlockCache;
using trace::storage::ScopedStorageOptions;
using trace::storage::StorageOptions;

TEST(StorageGolden, BlockedBackendMatrixBitIdentical) {
  for (const Golden& g : kGoldens) {
    // Mem-backend reference for the backend-independent trace hash and
    // the receivers() lists (served by the DepBegin column, which the
    // hash never reads). Pinned explicitly so a process-wide
    // LOGSTRUCT_STORAGE=blocked (the blocked-storage CI job) can't turn
    // the baseline blocked.
    trace::Trace mem;
    {
      StorageOptions mem_opts;
      mem_opts.kind = BackendKind::Mem;
      ScopedStorageOptions mscope(mem_opts);
      mem = g.make();
    }
    ASSERT_EQ(mem.storage_backend(), BackendKind::Mem) << g.name;
    const std::uint64_t mem_trace_hash =
        trace::storage::trace_structure_hash(mem);
    {
      LogicalStructure ls = extract_structure(mem, g.opts());
      ASSERT_EQ(structure_hash(mem, ls), g.expected) << g.name << " (mem)";
    }
    for (std::uint64_t cache_bytes : {1ull << 20, 0ull}) {
      for (int threads : {1, 4}) {
        StorageOptions opts;
        opts.kind = BackendKind::Blocked;
        opts.cache_bytes = cache_bytes;
        opts.block_bytes = 64 << 10;  // small blocks: more boundaries
        ScopedStorageOptions sscope(opts);
        ScopedDefaultParallelism pscope(threads);
        trace::Trace t = g.make();
        ASSERT_EQ(t.storage_backend(), BackendKind::Blocked) << g.name;
        EXPECT_EQ(trace::storage::trace_structure_hash(t), mem_trace_hash)
            << g.name << " trace hash diverges at cache=" << cache_bytes
            << " threads=" << threads;
        for (trace::EventId e = 0; e < mem.num_events(); ++e) {
          if (mem.event(e).kind != trace::EventKind::Send) continue;
          const auto rm = mem.receivers(e);
          const auto rb = t.receivers(e);
          ASSERT_TRUE(std::equal(rm.begin(), rm.end(), rb.begin(), rb.end()))
              << g.name << " receivers(" << e << ") diverge at cache="
              << cache_bytes << " threads=" << threads;
        }
        Options eopts = g.opts();
        eopts.threads = threads;
        LogicalStructure ls = extract_structure(t, eopts);
        EXPECT_TRUE(validate_structure(t, ls).empty()) << g.name;
        EXPECT_EQ(structure_hash(t, ls), g.expected)
            << g.name << " structure diverges at cache=" << cache_bytes
            << " threads=" << threads;
      }
    }
  }
}

template <typename T>
void mix_all(Fnv& f, const std::vector<T>& v) {
  f.mix(static_cast<std::int64_t>(v.size()));
  for (const T x : v) {
    if constexpr (std::is_floating_point_v<T>)
      f.mix(std::bit_cast<std::int64_t>(static_cast<double>(x)));
    else
      f.mix(static_cast<std::int64_t>(x));
  }
}

/// One fingerprint per kernel: the six per-event metric kernels, then the
/// efficiency suite over the phase windows.
std::vector<std::uint64_t> metric_hashes(const trace::Trace& t,
                                         const LogicalStructure& ls) {
  std::vector<std::uint64_t> out;
  Fnv f;
  mix_all(f, t.subblock_frame().duration);
  out.push_back(f.value());
  f = {};
  const metrics::IdleExperienced idle = metrics::idle_experienced(t);
  mix_all(f, idle.per_event);
  mix_all(f, idle.per_block);
  out.push_back(f.value());
  f = {};
  const metrics::DifferentialDuration dd =
      metrics::differential_duration(t, ls, 1);
  mix_all(f, dd.per_event);
  f.mix(dd.max_value);
  f.mix(dd.max_event);
  out.push_back(f.value());
  f = {};
  const metrics::Imbalance imb = metrics::imbalance(t, ls, 1);
  mix_all(f, imb.per_phase);
  for (const auto& row : imb.per_phase_proc) mix_all(f, row);
  mix_all(f, imb.per_event);
  out.push_back(f.value());
  f = {};
  const metrics::Lateness late = metrics::lateness(t, ls, false, 1);
  mix_all(f, late.per_event);
  mix_all(f, late.caused_by_chare);
  f.mix(late.max_event);
  f.mix(std::bit_cast<std::int64_t>(late.mean));
  out.push_back(f.value());
  f = {};
  const metrics::CriticalPath cp = metrics::critical_path(t, ls, 1);
  mix_all(f, cp.events);
  mix_all(f, cp.chare_share);
  f.mix(cp.length_ns);
  f.mix(std::bit_cast<std::int64_t>(cp.coverage));
  out.push_back(f.value());
  f = {};
  const metrics::EfficiencySuite eff = metrics::efficiency_suite(
      t, metrics::WindowSet::phases(t, ls.phases), 1);
  mix_all(f, eff.loads.busy);
  mix_all(f, eff.loads.ideal_span);
  mix_all(f, eff.loads.transfer_wait);
  mix_all(f, eff.parallel.per_window);
  mix_all(f, eff.balance.per_window);
  mix_all(f, eff.communication.per_window);
  mix_all(f, eff.serialization.per_window);
  mix_all(f, eff.transfer.per_window);
  out.push_back(f.value());
  return out;
}

/// Blocks a column of n elements of `elem` bytes spans at 4 KiB blocks.
std::uint64_t blocks_4k(std::int64_t n, std::size_t elem) {
  const std::uint64_t per_block = 4096 / elem;
  return (static_cast<std::uint64_t>(n) + per_block - 1) / per_block;
}

/// Every metric output is bit-identical on the mem backend and on a
/// blocked backend with 4 KiB blocks and a budget of two blocks per cache
/// shard. On that tight cache each derived view and kernel goes to the
/// cache at most once per column block per scan it makes, plus a slack
/// of 4: the sub-block frame scans Events once and Blocks once, walking
/// each block's event list (BlockEvBegin and BlockEvents) as it goes, and
/// a kernel that runs after a view exists makes no lookup for it. So
/// differential_duration, which reads only the frame, stays within the
/// slack; the critical path adds one Events scan and the dependency
/// view's DepSend and DepRecv scans; imbalance reads the procs in two
/// passes over Events; the efficiency suite adds one Events scan, the
/// proc lists (each proc's walk passes over BlockEvBegin and BlockEvents
/// once) and one pass over DepSend and DepRecv for the messages.
TEST(StorageGolden, MetricsMatchAcrossBackends) {
  ScopedDefaultParallelism serial(1);
  constexpr std::uint64_t kSlack = 4;
  for (const Golden& g : kGoldens) {
    SCOPED_TRACE(g.name);
    std::vector<std::uint64_t> mem_hashes;
    {
      StorageOptions mem_opts;
      mem_opts.kind = BackendKind::Mem;
      ScopedStorageOptions mscope(mem_opts);
      const trace::Trace mem = g.make();
      mem_hashes = metric_hashes(mem, extract_structure(mem, g.opts()));
    }
    StorageOptions opts;
    opts.kind = BackendKind::Blocked;
    opts.block_bytes = 4096;
    opts.cache_bytes = 2 * 16 * 4096;
    ScopedStorageOptions sscope(opts);
    const trace::Trace t = g.make();
    ASSERT_EQ(t.storage_backend(), BackendKind::Blocked);
    const LogicalStructure ls = extract_structure(t, g.opts());

    const std::uint64_t events_col =
        blocks_4k(t.num_events(), sizeof(trace::Event));
    const std::uint64_t block_walk =
        blocks_4k(t.num_blocks(), sizeof(trace::SerialBlock)) +
        blocks_4k(t.num_blocks() + 1, sizeof(std::int64_t)) +
        blocks_4k(t.num_events(), sizeof(trace::EventId));
    const std::uint64_t dep_col =
        blocks_4k(t.num_dependencies(), sizeof(trace::EventId));
    const std::uint64_t proc_walk =
        blocks_4k(t.num_blocks(), sizeof(trace::BlockId)) +
        static_cast<std::uint64_t>(t.num_procs()) *
            (blocks_4k(t.num_blocks() + 1, sizeof(std::int64_t)) +
             blocks_4k(t.num_events(), sizeof(trace::EventId)));
    const metrics::WindowSet windows =
        metrics::WindowSet::phases(t, ls.phases);
    auto lookups = [] {
      const BlockCache::Stats s = BlockCache::global().stats();
      return s.hits + s.misses;
    };
    BlockCache::global().reset_stats();
    std::uint64_t before = lookups();
    (void)t.subblock_frame();
    EXPECT_LE(lookups() - before, events_col + block_walk + kSlack)
        << "sub-block frame";
    before = lookups();
    (void)metrics::critical_path(t, ls, 1);
    EXPECT_LE(lookups() - before, events_col + 2 * dep_col + kSlack)
        << "critical_path";
    // Together they still miss at most once per block of the columns
    // they read, the bound the gap walk and the critical path kept
    // before the frame.
    EXPECT_LE(BlockCache::global().stats().misses,
              events_col + block_walk + 2 * dep_col + kSlack)
        << "frame and critical_path misses";
    before = lookups();
    (void)metrics::differential_duration(t, ls, 1);
    EXPECT_LE(lookups() - before, kSlack) << "differential_duration";
    before = lookups();
    (void)metrics::imbalance(t, ls, 1);
    EXPECT_LE(lookups() - before, 2 * events_col + kSlack) << "imbalance";
    before = lookups();
    (void)metrics::efficiency_suite(t, windows, 1);
    EXPECT_LE(lookups() - before,
              events_col + proc_walk + 2 * dep_col + kSlack)
        << "efficiency_suite";

    EXPECT_EQ(metric_hashes(t, ls), mem_hashes);
  }
}

/// The §3.2 passes read the trace only through the context's event rows
/// and unit keys, so at 4 KiB blocks and two blocks per cache shard each
/// of "reorder" and "stepping" goes to the cache at most once per column
/// block it scans, plus a slack of 1. In the one-context pipeline
/// "initial" has built the rows and the SDAG relations, so neither pass
/// scans a column. A context that holds only the phases, as
/// assign_steps builds one, has its first stepping pass build the rows
/// with one Events scan and, under SDAG inference, the unit keys with
/// one Blocks and one ChareBlocks scan; the other pass reads flat arrays
/// only. The goldens' Events columns are 1-4 blocks long, so the slack
/// stays at 1: a larger one would hide a second scan.
TEST(StorageGolden, StepPassLookupsBoundedByColumnScans) {
  ScopedDefaultParallelism serial(1);
  for (const Golden& g : kGoldens) {
    SCOPED_TRACE(g.name);
    StorageOptions opts;
    opts.kind = BackendKind::Blocked;
    opts.block_bytes = 4096;
    opts.cache_bytes = 2 * 16 * 4096;
    ScopedStorageOptions sscope(opts);
    const trace::Trace t = g.make();
    ASSERT_EQ(t.storage_backend(), BackendKind::Blocked);
    const Options eopts = g.opts();
    OrderContext ctx(t, eopts);
    run_partition_pipeline(ctx, nullptr, nullptr);
    std::vector<PassRecord> records;
    run_stepping_pipeline(ctx, &records);
    OrderContext fresh(t, eopts);
    fresh.phases = ctx.structure.phases;
    std::vector<PassRecord> fresh_records;
    run_stepping_pipeline(fresh, &fresh_records);

    const auto events_col = static_cast<std::int64_t>(
        blocks_4k(t.num_events(), sizeof(trace::Event)));
    const auto sdag_cols = static_cast<std::int64_t>(
        blocks_4k(t.num_blocks(), sizeof(trace::SerialBlock)) +
        blocks_4k(t.num_blocks(), sizeof(trace::BlockId)));
    const std::int64_t fresh_scans =
        events_col + (eopts.partition.sdag_inference ? sdag_cols : 0);
    for (const bool after_partition : {true, false}) {
      SCOPED_TRACE(after_partition ? "one context" : "phases only");
      int checked = 0;
      for (const PassRecord& r : after_partition ? records : fresh_records) {
        if (r.name != "reorder" && r.name != "stepping") continue;
        ++checked;
        const bool first = (r.name == "reorder") == eopts.step.reorder;
        const std::int64_t scans =
            first && !after_partition ? fresh_scans : 0;
        EXPECT_LE(r.cache_lookups, scans + 1)
            << r.name << ": Events column blocks " << events_col
            << ", Blocks + ChareBlocks column blocks " << sdag_cols;
      }
      EXPECT_EQ(checked, 2);
    }
    EXPECT_EQ(structure_hash(t, ctx.structure), g.expected);
    EXPECT_EQ(structure_hash(t, fresh.structure), g.expected);
  }
}

/// trace::sdag_relations reads the Blocks column once in sequence and
/// the per-chare block lists once in chare order, and keeps what the
/// absorption test needs from that scan, so at 4 KiB blocks it goes to
/// the cache at most once per Blocks and ChareBlocks column block.
TEST(StorageGolden, SdagRelationsReadEachBlockOnce) {
  for (const Golden& g : kGoldens) {
    SCOPED_TRACE(g.name);
    StorageOptions opts;
    opts.kind = BackendKind::Blocked;
    opts.block_bytes = 4096;
    opts.cache_bytes = 2 * 16 * 4096;
    ScopedStorageOptions sscope(opts);
    const trace::Trace t = g.make();
    ASSERT_EQ(t.storage_backend(), BackendKind::Blocked);
    const std::uint64_t cols =
        blocks_4k(t.num_blocks(), sizeof(trace::SerialBlock)) +
        blocks_4k(t.num_blocks(), sizeof(trace::BlockId));
    const BlockCache::Stats before = BlockCache::global().stats();
    const trace::SdagRelations sdag = trace::sdag_relations(t);
    const BlockCache::Stats after = BlockCache::global().stats();
    EXPECT_LE(after.hits + after.misses - before.hits - before.misses, cols)
        << "Blocks + ChareBlocks column blocks " << cols;
    EXPECT_EQ(sdag.rep.size(), static_cast<std::size_t>(t.num_blocks()));
  }
}

/// A golden's `.lsblk` bytes are pinned like the mini-trace's
/// (StorageFault.WriterBytesArePinned): the container written at 4 KiB
/// blocks from either backend has one CRC32C, recorded from the writer
/// that still had a v1 branch, with its record padding zeroed and the
/// checksums that cover it recomputed.
TEST(StorageGolden, ContainerBytesArePinned) {
  const Golden& g = kGoldens[2];
  ASSERT_STREQ(g.name, "lulesh/charm");
  for (const BackendKind kind : {BackendKind::Mem, BackendKind::Blocked}) {
    SCOPED_TRACE(kind == BackendKind::Mem ? "mem" : "blocked");
    StorageOptions opts;
    opts.kind = kind;
    opts.block_bytes = 4096;
    ScopedStorageOptions scope(opts);
    const trace::Trace t = g.make();
    const std::string path = ::testing::TempDir() + "ls_golden_pin_" +
                             std::to_string(::getpid()) + ".lsblk";
    trace::storage::write_blocked_file(t, path, 4096);
    std::ifstream f(path, std::ios::binary);
    const std::string image((std::istreambuf_iterator<char>(f)),
                            std::istreambuf_iterator<char>());
    std::remove(path.c_str());
    EXPECT_GT(image.size(), 4u * 4096u);
    EXPECT_EQ(util::crc32c(image.data(), image.size()), 0x752cb184u);
  }
}

}  // namespace
}  // namespace logstruct::order
