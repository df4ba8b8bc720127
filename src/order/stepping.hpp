#pragma once

/// \file stepping.hpp
/// Step assignment (paper §3.2) and the LogicalStructure result.
///
/// Within each phase: serial-block units are ordered per chare (by the w
/// replay clock when reordering, by physical time otherwise), then the
/// phase's events are settled in dependency order (Kahn over the chare
/// sequences and the in-phase messages). Each event's local step is one
/// past the step of the event settled last on its chare and of every
/// in-phase send it receives from. Phase offsets from the phase DAG turn
/// local steps into global ones.

#include <cstdint>
#include <vector>

#include "order/options.hpp"
#include "order/phases.hpp"
#include "trace/trace.hpp"

namespace logstruct::order {

/// The complete logical structure: the paper's end product.
struct LogicalStructure {
  PhaseResult phases;

  std::vector<std::int64_t> w;             ///< replay clock (reorder mode)
  std::vector<std::int32_t> local_step;    ///< per event, within its phase
  std::vector<std::int32_t> global_step;   ///< per event
  std::vector<std::int32_t> phase_offset;  ///< per phase
  std::vector<std::int32_t> phase_height;  ///< max local step per phase

  /// Per chare: its events in final logical order (phases in DAG order,
  /// then settle order: units as sorted, events in unit order, unless a
  /// conflict settled an event early).
  std::vector<std::vector<trace::EventId>> chare_sequence;
  std::vector<std::int32_t> pos_in_chare;  ///< per event

  std::int32_t max_step = 0;
  /// Events settled to break a stall: the unit order contradicted the
  /// messages (a dependency cycle), so the earliest event whose
  /// happened-before predecessors were all settled went first. 0 on
  /// consistent clocks; per-PE clock skew produces them (the fuzz tests
  /// cover ±200 and ±2000 ns).
  std::int32_t order_conflicts = 0;

  [[nodiscard]] std::int32_t num_phases() const {
    return phases.num_phases();
  }
};

class OrderContext;

/// Run the §3.2 passes ("reorder" then "stepping") over ctx: consumes
/// ctx.phases and fills ctx.structure. Shared by assign_steps and
/// extract_structure so the stepping passes reuse the event rows and
/// unit keys the context already holds. Appends the per-pass records
/// when asked.
void run_stepping_pipeline(OrderContext& ctx,
                           std::vector<PassRecord>* records = nullptr);

/// Assign steps to already-found phases.
LogicalStructure assign_steps(const trace::Trace& trace, PhaseResult phases,
                              const Options& opts);

/// The full pipeline: the partition passes + the stepping passes over one
/// shared OrderContext.
LogicalStructure extract_structure(const trace::Trace& trace,
                                   const Options& opts);

}  // namespace logstruct::order
