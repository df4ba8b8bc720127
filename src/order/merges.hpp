#pragma once

/// \file merges.hpp
/// Phase-finding merge passes (paper §3.1.2 - §3.1.3).
///
/// Every pass follows the paper's discipline: schedule merges, apply them,
/// then cycle-merge so the partition graph is a DAG again. Application and
/// runtime partitions are only ever combined by cycle merges.
///
/// Each is a pipeline pass body: it runs on the graph the OrderContext
/// owns and pulls serial-block units and scratch buffers from it.

#include "order/partition_graph.hpp"

namespace logstruct::order {

class OrderContext;

/// Algorithm 1: merge the partitions holding matching ends of each remote
/// method invocation (same-kind pairs only), then cycle-merge.
void dependency_merge(OrderContext& ctx);

/// Algorithm 2: restore merges broken by the application/runtime split —
/// same-kind neighbors within one (absorbed) serial block, then
/// cycle-merge.
void repair_merge(OrderContext& ctx);

/// §3.1.3, second rule: when the chares of one multi-chare partition all
/// continue into serial n+1 but land in several partitions, merge those
/// successors (same-kind only), then cycle-merge.
void neighbor_serial_merge(OrderContext& ctx);

}  // namespace logstruct::order
