#pragma once

/// \file hbclock.hpp
/// Sparse, clamped vector clocks over serial-block chains.
///
/// The only genuine happened-before chains a Charm++ trace guarantees are
/// its serial blocks: events inside one block execute uninterrupted, so
/// they are totally ordered, while blocks of the same chare (let alone the
/// same PE) are not — the paper's whole point is that physical order is
/// not logical order. A clock entry therefore names a *chain* (a serial
/// block, or a synthetic singleton chain for blockless events) and the
/// length of the prefix of that chain known to have happened before:
/// event `a` happened before `b` iff b's clock covers a's chain up to
/// and including a's position in it.
///
/// Chare- or PE-indexed clocks would be smaller but inexact here (the
/// ancestor set within a chare is not prefix-closed in time order), and an
/// inexact oracle is worse than none: every over-approximation is a false
/// checker alarm. Chain clocks are exact; the price is entry count, which
/// the `max_entries` clamp bounds — an event whose merged clock would
/// exceed the budget stores nothing and is marked *saturated*. Saturated
/// events still answer queries exactly through a bounded backward walk
/// over direct predecessors (order::CausalityOracle::hb), so clamping
/// trades query time for memory, never correctness. See
/// docs/CAUSALITY.md.

#include <algorithm>
#include <cstdint>
#include <vector>

namespace logstruct::order {

/// One covered chain prefix: every event of chain `chain` with position
/// < `len` happened before the clock's owner (or is the owner itself).
struct HbEntry {
  std::int32_t chain = 0;
  std::int32_t len = 0;  ///< covered prefix length (position + 1)
};

/// A sparse vector clock: entries sorted by chain id, at most one entry
/// per chain. Empty + saturated() means "budget exceeded, ask the
/// oracle's fallback"; empty + !saturated() means "no ancestors".
class HbClock {
 public:
  HbClock() = default;

  [[nodiscard]] bool saturated() const { return saturated_; }
  [[nodiscard]] const std::vector<HbEntry>& entries() const {
    return entries_;
  }
  [[nodiscard]] std::int32_t num_entries() const {
    return static_cast<std::int32_t>(entries_.size());
  }

  /// Does this clock cover position `pos` of chain `chain`? Meaningless
  /// (always false) on a saturated clock — callers must branch to the
  /// oracle's fallback first.
  [[nodiscard]] bool covers(std::int32_t chain, std::int32_t pos) const {
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), chain,
        [](const HbEntry& e, std::int32_t c) { return e.chain < c; });
    return it != entries_.end() && it->chain == chain && it->len > pos;
  }

  /// Prefix length covered for `chain` (0 when absent).
  [[nodiscard]] std::int32_t covered_len(std::int32_t chain) const {
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), chain,
        [](const HbEntry& e, std::int32_t c) { return e.chain < c; });
    return it != entries_.end() && it->chain == chain ? it->len : 0;
  }

  /// Merge-max another clock into this one (sorted two-pointer union).
  /// Merging a saturated clock saturates this one.
  void merge(const HbClock& other) {
    if (saturated_) return;
    if (other.saturated_) {
      saturate();
      return;
    }
    if (other.entries_.empty()) return;
    if (entries_.empty()) {
      entries_ = other.entries_;
      return;
    }
    std::vector<HbEntry> merged;
    merged.reserve(entries_.size() + other.entries_.size());
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < entries_.size() && j < other.entries_.size()) {
      const HbEntry& a = entries_[i];
      const HbEntry& b = other.entries_[j];
      if (a.chain < b.chain) {
        merged.push_back(a);
        ++i;
      } else if (b.chain < a.chain) {
        merged.push_back(b);
        ++j;
      } else {
        merged.push_back({a.chain, std::max(a.len, b.len)});
        ++i;
        ++j;
      }
    }
    merged.insert(merged.end(), entries_.begin() + static_cast<long>(i),
                  entries_.end());
    merged.insert(merged.end(),
                  other.entries_.begin() + static_cast<long>(j),
                  other.entries_.end());
    entries_ = std::move(merged);
  }

  /// Raise the covered prefix of one chain to at least `len`.
  void raise(std::int32_t chain, std::int32_t len) {
    if (saturated_) return;
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), chain,
        [](const HbEntry& e, std::int32_t c) { return e.chain < c; });
    if (it != entries_.end() && it->chain == chain)
      it->len = std::max(it->len, len);
    else
      entries_.insert(it, {chain, len});
  }

  /// Drop the entry table and mark the clock saturated. Deterministic:
  /// whether a clock saturates depends only on its predecessors' final
  /// clocks and the budget, never on thread schedule.
  void saturate() {
    saturated_ = true;
    entries_.clear();
    entries_.shrink_to_fit();
  }

  /// Heap bytes held by the entry table (for the obs gauge).
  [[nodiscard]] std::int64_t memory_bytes() const {
    return static_cast<std::int64_t>(entries_.capacity() *
                                     sizeof(HbEntry));
  }

 private:
  std::vector<HbEntry> entries_;
  bool saturated_ = false;
};

}  // namespace logstruct::order
