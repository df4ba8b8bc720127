#pragma once

/// \file initial.hpp
/// Initial partition construction (paper §3.1.1).
///
/// Dependency events are grouped by their (SDAG-absorbed) serial block and
/// split where dependencies cross the application/runtime boundary
/// (paper Fig. 2). Edges: (1) remote-invocation matches, (2) intra-block
/// happened-before between the split runs, (3) SDAG serial-adjacency
/// inference, and — for message-passing traces — per-process physical-time
/// order (§3.4).

#include "order/block_units.hpp"
#include "order/options.hpp"
#include "order/partition_graph.hpp"
#include "trace/trace.hpp"

namespace logstruct::order {

/// Partitioning works on the RAW serial blocks, `units` =
/// compute_block_units(trace, false) (OrderContext::units(false) in the
/// pipeline): SDAG absorption (§2.1) contributes happened-before EDGES
/// here (paper Fig. 3 draws the when-relationship as a chare
/// happened-before edge); the event-level merge of a when-execution into
/// its serial only applies to the ordering stage (§3.2).
/// `threads` fans the per-event application/runtime classification (the
/// O(events * fanout) part) out over the shared pool; partition ids and
/// edges are assembled serially so the result is identical for any count.
PartitionGraph build_initial_partitions(const trace::Trace& trace,
                                        const PartitionOptions& opts,
                                        const BlockUnits& units,
                                        int threads = 1);

}  // namespace logstruct::order
