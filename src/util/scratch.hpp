#pragma once

/// \file scratch.hpp
/// Reusable scratch for loops that fan out over util::parallel_for.
///
/// StampedTable is a per-key value whose entries are scoped to one
/// iteration by a stamp, so one table serves every iteration without
/// clearing. ScratchPool lends each running body its own slot of such
/// tables and buffers, so bodies never share one and slots are built
/// once, not once per index.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace logstruct::util {

/// A value per key in [0, keys), each entry stamped with the iteration
/// that last set it: entries stamped by another iteration read as
/// absent.
template <typename T>
class StampedTable {
 public:
  /// Size the table for `keys` keys; entries are absent afterwards only
  /// if the size changed (reuse across iterations relies on stamps).
  void resize(std::size_t keys) {
    if (stamp_.size() == keys) return;
    stamp_.assign(keys, -1);
    value_.resize(keys);
  }

  /// The entry set by iteration `stamp`, or nullptr.
  [[nodiscard]] T* find(std::int32_t stamp, std::int32_t key) {
    const auto k = static_cast<std::size_t>(key);
    return stamp_[k] == stamp ? &value_[k] : nullptr;
  }

  /// The entry of `key`, now owned by iteration `stamp`.
  T& set(std::int32_t stamp, std::int32_t key) {
    const auto k = static_cast<std::size_t>(key);
    stamp_[k] = stamp;
    return value_[k];
  }

 private:
  std::vector<std::int32_t> stamp_;
  std::vector<T> value_;
};

/// Slots of scratch a parallel_for body borrows for one index: a slot is
/// never on loan to two running bodies, and a new one is built only when
/// every existing slot is on loan, so at most as many exist as bodies
/// ever ran at once (one when the loop runs serially). Slots keep their
/// buffers between loans and die with the pool.
template <typename Slot>
class ScratchPool {
 public:
  template <typename Fn>
  void with(Fn&& fn) {
    std::unique_ptr<Slot> slot;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        slot = std::move(free_.back());
        free_.pop_back();
      }
    }
    if (!slot) slot = std::make_unique<Slot>();
    fn(*slot);
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(slot));
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<Slot>> free_;
};

}  // namespace logstruct::util
