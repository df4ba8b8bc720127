#include "trace/storage/block_cache.hpp"

#include "obs/obs.hpp"

namespace logstruct::trace::storage {

namespace {

/// Derived hit-rate gauge in basis points (9980 = 99.80%), refreshed
/// every 1024 lookups so the hit rate is current in the sidecar's metrics
/// dump and in a mid-run crash dump, not only computed post-hoc in the
/// bench harness. Throttled: two extra relaxed loads per refresh,
/// nothing per ordinary lookup.
inline void maybe_publish_hit_rate(std::int64_t hits, std::int64_t misses) {
#if LOGSTRUCT_OBS
  const std::int64_t total = hits + misses;
  if (total == 0 || (total & 1023) != 0) return;
  OBS_GAUGE_SET("trace/storage/cache_hit_rate", hits * 10000 / total);
#else
  (void)hits;
  (void)misses;
#endif
}

}  // namespace

BlockCache& BlockCache::global() {
  static BlockCache cache;
  return cache;
}

std::uint64_t next_store_generation() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

CachedBlock BlockCache::get(const BlockStore& store, ColumnId col,
                            std::uint32_t block) {
  const Key key{store.generation(),
                (static_cast<std::uint64_t>(col) << 32) | block};
  Shard& shard = shard_for(key);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
      const std::int64_t hits =
          hits_.fetch_add(1, std::memory_order_relaxed) + 1;
      OBS_COUNTER_INC("trace/storage/cache/hits");
      maybe_publish_hit_rate(hits, misses_.load(std::memory_order_relaxed));
      return it->second.block;
    }
  }

  // Miss: read outside the shard lock so concurrent misses on different
  // blocks of the same shard overlap their I/O.
  const std::uint32_t bytes = store.block_size(col, block);
  std::shared_ptr<char[]> buf(new char[bytes]);
  store.read_block(col, block, buf.get());
  CachedBlock filled{std::shared_ptr<const char[]>(std::move(buf)), bytes};
  const std::int64_t misses =
      misses_.fetch_add(1, std::memory_order_relaxed) + 1;
  OBS_COUNTER_INC("trace/storage/cache/misses");
  maybe_publish_hit_rate(hits_.load(std::memory_order_relaxed), misses);

  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    // Another thread filled it while we read; keep the cached copy.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
    return it->second.block;
  }
  shard.lru.push_front(key);
  shard.map.emplace(key, Entry{filled, shard.lru.begin()});
  shard.bytes += bytes;
  evict_locked(shard, shard_budget());
  return filled;
}

void BlockCache::evict_locked(Shard& shard, std::uint64_t budget) {
  if (budget == 0) return;  // unbounded
  while (shard.bytes > budget && shard.lru.size() > 1) {
    const Key victim = shard.lru.back();
    auto it = shard.map.find(victim);
    shard.bytes -= it->second.block.bytes;
    shard.map.erase(it);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    OBS_COUNTER_INC("trace/storage/cache/evictions");
  }
}

void BlockCache::set_budget(std::uint64_t bytes) {
  budget_.store(bytes, std::memory_order_relaxed);
  const std::uint64_t per_shard = shard_budget();
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    evict_locked(shard, per_shard);
  }
}

void BlockCache::purge(std::uint64_t generation) {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      if (it->generation == generation) {
        auto entry = shard.map.find(*it);
        shard.bytes -= entry->second.block.bytes;
        shard.map.erase(entry);
        it = shard.lru.erase(it);
      } else {
        ++it;
      }
    }
  }
}

BlockCache::Stats BlockCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    s.resident_bytes += shard.bytes;
  }
  return s;
}

void BlockCache::reset_stats() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
}

}  // namespace logstruct::trace::storage
