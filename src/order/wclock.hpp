#pragma once

/// \file wclock.hpp
/// The per-phase replay clock w (paper §3.2.1).
///
/// w simulates an idealized forward replay of each phase: phase-initial
/// sends get w=0, subsequent sends count up along their serial block,
/// receives land one past their matching send, and sends following a
/// receive count up from it. Only relative w values within one chare
/// matter; they drive the reordering of serial blocks.
///
/// Message-passing mode (StepOptions::mpi_mode) pins sends after the
/// receives that physically preceded them on the process:
///   w_send = 1 + max { w_recv | recv -> send in process order },
/// so receives may be replayed earlier but never migrate across a send
/// that followed them.

#include <cstdint>
#include <span>
#include <vector>

#include "order/block_units.hpp"
#include "order/options.hpp"
#include "order/phases.hpp"
#include "trace/trace.hpp"

namespace logstruct::order {

/// w per event. Events outside any phase never occur (every event is
/// partitioned); processing is per phase in physical-time order, which is
/// a valid topological order of the replay constraints because messages
/// and serial blocks only run forward in time.
///
/// Phases are independent (the one cross-event read, w of the matching
/// send, is taken only when the send is in the same phase), so the phase
/// loop fans out over `threads` workers with bit-identical results;
/// threads <= 1 runs serially, 0 follows util::default_parallelism().
/// In Charm++ mode an event's unit is unit_of_block[rows.block[e]]
/// (OrderContext::unit_of_block()).
std::vector<std::int64_t> compute_w(
    const trace::Trace& trace, const EventRows& rows,
    const PhaseResult& phases, std::span<const trace::BlockId> unit_of_block,
    const StepOptions& opts, int threads = 1);

}  // namespace logstruct::order
