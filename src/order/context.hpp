#pragma once

/// \file context.hpp
/// Shared state threaded through the extraction pipeline passes.
///
/// The OrderContext owns the PartitionGraph and caches the derived
/// values passes keep re-deriving: leaps and leap groups, keyed on the
/// graph's structural epoch so a cache entry survives exactly as long as
/// no pass mutates the graph, and the trace-derived inputs (SDAG
/// relations, serial block units, event rows), built once per analysis;
/// the time order is the trace's own. It also holds arena-style scratch
/// buffers (cleared, never freed, between passes) and the pipeline
/// products (PhaseResult, LogicalStructure).
///
/// Ownership: set_pg() moves a graph into the context (the "initial"
/// pass does this, and so do tests and benches that start from a
/// hand-built graph); the context owns it until release_pg(), which
/// run_stepping_pipeline calls once the phases are final. A
/// graph built by build_initial_partitions(ctx) views ctx.by_time(), the
/// trace's own time order, so it must not outlive the trace.
/// Invalidation rules:
///  - leaps()/leap_groups() recompute iff pg().epoch() moved since the
///    cached copy; any merge or bulk edge addition moves the epoch.
///  - sdag(), units(), unit_of_block() and event_rows() depend only on
///    the immutable trace, so each is computed at most once per context;
///    by_time() forwards to the trace, which builds it once per trace.

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "order/block_units.hpp"
#include "order/options.hpp"
#include "order/partition_graph.hpp"
#include "order/phases.hpp"
#include "order/stepping.hpp"
#include "trace/sdag.hpp"
#include "trace/trace.hpp"

namespace logstruct::order {

class OrderContext {
 public:
  OrderContext(const trace::Trace& trace, const Options& opts)
      : trace_(&trace), opts_(opts) {}

  OrderContext(const OrderContext&) = delete;
  OrderContext& operator=(const OrderContext&) = delete;

  [[nodiscard]] const trace::Trace& trace() const { return *trace_; }
  [[nodiscard]] const Options& options() const { return opts_; }

  // --- partition graph ------------------------------------------------
  [[nodiscard]] bool has_pg() const { return pg_.has_value(); }
  [[nodiscard]] PartitionGraph& pg();
  [[nodiscard]] const PartitionGraph& pg() const;

  /// Take ownership of a freshly built graph (the "initial" pass).
  void set_pg(PartitionGraph&& pg);

  /// Free the graph and its leap caches. The stepping passes read only
  /// the final phases, so run_stepping_pipeline drops the graph first
  /// and its memory goes to their working set instead of on top of it.
  void release_pg();

  // --- epoch-cached derived state --------------------------------------
  /// Leap of every partition; recomputed only when the graph epoch moved.
  [[nodiscard]] const std::vector<std::int32_t>& leaps();

  /// Partitions grouped by leap; same invalidation as leaps().
  [[nodiscard]] const std::vector<std::vector<graph::NodeId>>& leap_groups();

  // --- trace-derived inputs (the trace is immutable: never invalidate) --
  /// Every event in Trace::before order: Trace::by_time(), which the
  /// trace builds once and shares with the metric kernels.
  [[nodiscard]] const std::vector<trace::EventId>& by_time() const {
    return trace_->by_time();
  }

  /// SDAG serial numbers, absorption and serial adjacency (§2.1).
  [[nodiscard]] const trace::SdagRelations& sdag();

  /// Each serial block's events in Trace::before order, the rows the
  /// partition passes read: one counting scatter of by_time() keyed by
  /// event_rows().block.
  [[nodiscard]] const BlockUnits& units();

  /// The step-assignment unit of every block, as its representative
  /// block: sdag().rep under SDAG inference (§2.1 absorption), the
  /// identity otherwise. The w clock and stepping key an event's unit as
  /// unit_of_block()[event_rows().block[e]].
  [[nodiscard]] const std::vector<trace::BlockId>& unit_of_block();

  /// Per-event chare, kind, partner, block and collective rows from one
  /// scan of the event column, built by "initial" (or by the first
  /// stepping pass of a context that runs only those): the order passes
  /// read them instead of Trace::event().
  [[nodiscard]] const EventRows& event_rows();

  // --- arena scratch ----------------------------------------------------
  /// Reusable merge-pair buffer; returned cleared.
  [[nodiscard]] std::vector<std::pair<PartId, PartId>>& scratch_pairs();

  /// Reusable edge buffer; returned cleared. Distinct from
  /// scratch_pairs() so a pass may hold both at once.
  [[nodiscard]] std::vector<std::pair<PartId, PartId>>& scratch_edges();

  /// Approximate heap footprint (capacity, not size) of the context's
  /// arena scratch and epoch caches. Feeds the
  /// `order/context/arena_hwm_bytes` high-water gauge the PassManager
  /// refreshes at every pass boundary.
  [[nodiscard]] std::int64_t arena_bytes() const;

  // --- pipeline products ------------------------------------------------
  PhaseResult phases;          ///< filled by the "finalize" pass
  LogicalStructure structure;  ///< filled by the "stepping" pass
  std::vector<std::int64_t> w;  ///< replay clock from the "reorder" pass

 private:
  const trace::Trace* trace_;
  Options opts_;

  std::optional<PartitionGraph> pg_;

  std::vector<std::int32_t> leaps_;
  std::uint64_t leaps_epoch_ = 0;
  std::vector<std::vector<graph::NodeId>> groups_;
  std::uint64_t groups_epoch_ = 0;

  std::optional<trace::SdagRelations> sdag_;
  std::optional<BlockUnits> units_;
  std::vector<trace::BlockId> identity_units_;
  std::optional<EventRows> event_rows_;

  std::vector<std::pair<PartId, PartId>> scratch_pairs_;
  std::vector<std::pair<PartId, PartId>> scratch_edges_;
};

}  // namespace logstruct::order
