#pragma once

/// \file infer.hpp
/// Missing-dependency inference and DAG-property enforcement (§3.1.4).
///
/// Charm++ traces lack many control dependencies (runtime-internal control
/// flow is not recorded), so the partition DAG can be too disconnected to
/// order. Three passes fix this:
///  - Algorithm 3: physical-time order of partition-initial source events
///    per chare implies happened-before between their partitions.
///  - Algorithm 4 + property 1: partitions overlapping in chares at the
///    same leap are merged (same kind) or forced into sequence by
///    initial-source time (application vs runtime — or any pair when leap
///    merging is disabled, the Fig. 17 ablation).
///  - Algorithm 5 / property 2: every partition's chares must be covered
///    by its successors, so no two events of one chare can land on the
///    same global step.
///
/// Each pass body runs on the graph the OrderContext owns and serves
/// leaps and leap groups from the context's epoch-keyed cache instead of
/// recomputing per call. The property checks also take a bare graph, so
/// PassManager::verify can run them on any pass's exit state.

#include "order/partition_graph.hpp"

namespace logstruct::order {

class OrderContext;

/// Algorithm 3 (+ cycle merge).
void infer_source_order(OrderContext& ctx);

/// Fixpoint establishing property 1: no leap has two partitions sharing a
/// chare. Same-kind overlaps merge when opts.leap_merge, otherwise they —
/// like app/runtime overlaps always — get an inferred physical-time order
/// edge.
void enforce_leap_property(OrderContext& ctx);

/// Algorithm 5: add forward edges so each partition's chares appear in its
/// successors (property 2). Requires property 1 to hold.
void enforce_chare_paths(OrderContext& ctx);

/// True iff no two partitions at the same leap share a chare (property 1).
/// The context overload reads the cached leap groups.
bool check_leap_property(OrderContext& ctx);
bool check_leap_property(const PartitionGraph& pg);

/// True iff property 2 holds: for every partition p and chare c of p,
/// either some direct successor of p contains c or no later leap does.
bool check_chare_paths(const PartitionGraph& pg);

}  // namespace logstruct::order
