#pragma once

/// \file block_cache.hpp
/// Process-wide concurrent block cache over BlockStore readers.
///
/// One cache serves every open store; entries are keyed by the store's
/// generation id plus (column, block). Sixteen independently locked
/// shards each run strict LRU within a per-shard slice of the byte
/// budget. Block k of column c lives in shard (k + 5c + generation) mod
/// 16, so one column's blocks rotate through every shard and columns a
/// kernel walks side by side do not crowd one shard's slice. A hit (or a
/// filled miss) returns a shared_ptr to the block's
/// buffer — that reference IS the pin: eviction only drops the cache's
/// own reference, so a reader's span stays valid for as long as it holds
/// the pointer, even under a tiny budget with heavy eviction.
///
/// Hit/miss/eviction totals feed the obs registry
/// (trace/storage/cache/*) and are mirrored in stats() for benches.

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "trace/storage/block_store.hpp"
#include "trace/storage/format.hpp"

namespace logstruct::trace::storage {

/// A pinned, cached block: `bytes` valid bytes at data.get().
struct CachedBlock {
  std::shared_ptr<const char[]> data;
  std::uint32_t bytes = 0;
};

class BlockCache {
 public:
  static BlockCache& global();

  /// Fetch one block, reading through `store` on a miss. Thread-safe.
  CachedBlock get(const BlockStore& store, ColumnId col, std::uint32_t block);

  /// Replace the byte budget (0 = unbounded) and evict down to it.
  void set_budget(std::uint64_t bytes);

  /// Drop every entry belonging to a store generation (store teardown).
  void purge(std::uint64_t generation);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t resident_bytes = 0;
  };
  [[nodiscard]] Stats stats() const;

  /// Zero the hit/miss/eviction totals (bench isolation); entries stay.
  void reset_stats();

 private:
  BlockCache() = default;

  struct Key {
    std::uint64_t generation;
    std::uint64_t slot;  // col << 32 | block
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::uint64_t h = k.generation * 0x9e3779b97f4a7c15ull;
      h ^= k.slot + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      return static_cast<std::size_t>(h);
    }
  };
  struct Entry {
    CachedBlock block;
    std::list<Key>::iterator lru_pos;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<Key, Entry, KeyHash> map;
    std::list<Key> lru;  // front = most recent
    std::uint64_t bytes = 0;
  };

  static constexpr std::uint32_t kShards = 16;

  Shard& shard_for(const Key& k) {  // stride 5 is odd: a bijection mod 16
    const std::uint64_t stripe = (k.slot & 0xffffffffu) + 5 * (k.slot >> 32);
    return shards_[(stripe + k.generation) % kShards];
  }
  /// Evict LRU entries until the shard fits its budget slice. Caller
  /// holds the shard lock; evicted buffers die here unless pinned.
  void evict_locked(Shard& shard, std::uint64_t budget);

  [[nodiscard]] std::uint64_t shard_budget() const {
    const std::uint64_t total = budget_.load(std::memory_order_relaxed);
    return total == 0 ? 0 : (total / kShards == 0 ? 1 : total / kShards);
  }

  Shard shards_[kShards];
  std::atomic<std::uint64_t> budget_{0};  // 0 = unbounded
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

/// Monotonic generation ids for BlockStore instances (never reused).
std::uint64_t next_store_generation();

}  // namespace logstruct::trace::storage
