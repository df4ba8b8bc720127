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

#include <cstdint>
#include <span>
#include <vector>

#include "order/block_units.hpp"
#include "order/partition_graph.hpp"
#include "trace/trace.hpp"

namespace logstruct::order {

class OrderContext;

/// Per event, 1 iff Trace::is_runtime_event(e): its own chare, its
/// partner's chare, or (for a send) one of its receivers' chares is a
/// runtime chare. One pass over the event rows settles both ends of
/// every partner link, since a send's receivers are exactly the receives
/// naming it as partner.
std::vector<std::uint8_t> runtime_event_flags(
    const EventRows& rows, std::span<const trace::ChareInfo> chares);

/// Builds the initial partition graph of ctx.trace() under
/// ctx.options().partition, building ctx.event_rows() on the way.
/// Partitioning works on the RAW serial blocks, ctx.units(): SDAG
/// absorption (§2.1) contributes happened-before
/// EDGES here, read from ctx.sdag() (paper Fig. 3 draws the
/// when-relationship as a chare happened-before edge); the event-level
/// merge of a when-execution into its serial only applies to the ordering
/// stage (§3.2). The graph is finalized with ctx.by_time(), the trace's
/// time order, which it views, so it must not outlive the trace. The
/// build is sequential.
PartitionGraph build_initial_partitions(OrderContext& ctx);

}  // namespace logstruct::order
