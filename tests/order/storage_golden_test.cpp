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

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "order/validate.hpp"
#include "trace/storage/blocked_trace.hpp"
#include "trace/storage/options.hpp"
#include "golden_fixtures.hpp"

namespace logstruct::order {
namespace {

using golden::Golden;
using golden::kGoldens;
using golden::ScopedDefaultParallelism;
using golden::structure_hash;
using trace::storage::BackendKind;
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

}  // namespace
}  // namespace logstruct::order
