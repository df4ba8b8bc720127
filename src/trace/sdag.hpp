#pragma once

/// \file sdag.hpp
/// Structured Dagger (SDAG) inference (paper §2.1).
///
/// SDAG control flow is implemented by the runtime and not directly traced,
/// so two pieces of structure are reconstructed from entry-method naming:
///
/// 1. *Absorption*: the serial guarded by `when e()` runs immediately after
///    the arrival of e; the e-execution directly preceding a serial on the
///    same chare is treated as part of that serial for ordering purposes.
/// 2. *Serial adjacency*: serial n observed directly before serial n+1 in
///    true time on the same chare implies happened-before.

#include <cstdint>
#include <utility>
#include <vector>

#include "trace/trace.hpp"

namespace logstruct::trace {

struct SdagRelations {
  /// Per block, the SDAG serial number of its entry (-1: not a serial).
  std::vector<std::int32_t> serial;
  /// For every block, the block it is absorbed into for ordering (itself
  /// when not absorbed). Chains are flattened: every entry is a
  /// representative that maps to itself.
  std::vector<BlockId> rep;
  /// Inferred happened-before pairs (earlier block, later block): for
  /// each chare, a block of SDAG serial n is linked to the nearest later
  /// block of serial n+1 on that chare.
  std::vector<std::pair<BlockId, BlockId>> happened_before;
};

/// Both SDAG relations of the trace, from one sequential read of the
/// block column and one of the per-chare block lists: no block is read
/// twice.
SdagRelations sdag_relations(const Trace& trace);

}  // namespace logstruct::trace
