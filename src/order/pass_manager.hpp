#pragma once

/// \file pass_manager.hpp
/// Runs registered passes over an OrderContext in order.
///
/// For every pass the manager: opens the pass's obs span (unless the pass
/// emits its own), runs the body when enabled, attaches the resulting
/// partition count, bumps the pass's run/merge counters, records a
/// PassRecord (name, seconds, ran, partitions) for PipelineTimings and
/// the perf-trajectory file, refreshes the crash flight recorder's metric
/// table when it is armed, and — when invariant checking is on — dies
/// loudly if a declared invariant does not hold on the pass's exit state.
///
/// Invariant checking is enabled per run via
/// PartitionOptions::check_passes or globally via the
/// LOGSTRUCT_CHECK_PASSES environment variable.

#include <vector>

#include "order/pass.hpp"

namespace logstruct::order {

class OrderContext;

class PassManager {
 public:
  explicit PassManager(bool check_invariants = false);

  /// Register a pass; passes run in registration order.
  void add(Pass pass);

  /// Execute all passes against ctx.
  void run(OrderContext& ctx);

  [[nodiscard]] const std::vector<PassRecord>& records() const {
    return records_;
  }
  [[nodiscard]] bool checking() const { return check_; }

  /// True when LOGSTRUCT_CHECK_PASSES is set (to anything but "0") in the
  /// environment; read once per process.
  static bool invariant_check_forced();

 private:
  void verify(const Pass& pass, OrderContext& ctx) const;

  std::vector<Pass> passes_;
  std::vector<PassRecord> records_;
  bool check_;
};

}  // namespace logstruct::order
