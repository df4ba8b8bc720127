#pragma once

/// \file step_slots.hpp
/// Dense numbering of the step keys the per-step metric kernels group
/// events by, so their per-key minima and counts live in flat vectors.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "order/stepping.hpp"

namespace logstruct::metrics {

/// One slot per (phase, global step) key, or per global step alone when
/// `by_phase` is false: each phase's steps from its lowest to its highest
/// take consecutive slots, phases end to end. Bounds come from the
/// structure's own steps, so a loaded structure numbers the same way.
class StepSlots {
 public:
  StepSlots(const order::LogicalStructure& ls, bool by_phase)
      : ls_(ls), by_phase_(by_phase) {
    const std::size_t groups =
        by_phase ? static_cast<std::size_t>(ls.num_phases()) : 1;
    lo_.assign(groups, std::numeric_limits<std::int32_t>::max());
    std::vector<std::int32_t> hi(groups, -1);
    for (std::size_t e = 0; e < ls.global_step.size(); ++e) {
      const std::size_t g = group(e);
      lo_[g] = std::min(lo_[g], ls.global_step[e]);
      hi[g] = std::max(hi[g], ls.global_step[e]);
    }
    base_.assign(groups, 0);
    for (std::size_t g = 0; g < groups; ++g) {
      base_[g] = size_;
      if (hi[g] >= lo_[g]) size_ += hi[g] - lo_[g] + 1;
    }
  }

  /// Number of slots.
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(size_);
  }

  /// Slot of event e's key.
  [[nodiscard]] std::size_t operator()(trace::EventId e) const {
    const auto i = static_cast<std::size_t>(e);
    const std::size_t g = group(i);
    return static_cast<std::size_t>(base_[g] + ls_.global_step[i] - lo_[g]);
  }

 private:
  [[nodiscard]] std::size_t group(std::size_t e) const {
    return by_phase_ ? static_cast<std::size_t>(ls_.phases.phase_of_event[e])
                     : 0;
  }

  const order::LogicalStructure& ls_;
  bool by_phase_;
  std::vector<std::int32_t> lo_;
  std::vector<std::int64_t> base_;
  std::int64_t size_ = 0;
};

}  // namespace logstruct::metrics
