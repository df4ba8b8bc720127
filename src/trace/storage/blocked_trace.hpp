#pragma once

/// \file blocked_trace.hpp
/// Entry points of the blocked trace backend (docs/STORAGE.md).
///
/// spill_to_blocked() is called by Trace::freeze() when the process
/// default backend is Blocked: the columns are already built in RAM, so
/// it writes them into an unlinked spill `.lsblk` with
/// write_blocked_file(), swaps the Trace onto the store, and releases
/// the vectors. The named-file functions back tools/trace_convert:
/// write_blocked_file() persists any frozen trace as a `.lsblk`,
/// open_blocked_trace() serves one without re-freezing, and
/// trace_structure_hash() is the backend-independent fingerprint used to
/// verify round trips and cross-backend equality.

#include <cstdint>
#include <string>

#include "trace/diagnostics.hpp"
#include "trace/trace.hpp"

namespace logstruct::trace::storage {

// (Declared in trace/trace.hpp for friendship; restated here as the
// public surface.)
//
// void spill_to_blocked(Trace& trace);
// Trace open_blocked_trace(const std::string& path);
// void write_blocked_file(const Trace& trace, const std::string& path,
//                         std::uint32_t block_bytes);
// std::string serialize_trace_metadata(const Trace& trace);
// std::uint64_t trace_structure_hash(const Trace& trace);

/// Recovering open (StorageOptions::recovering()): never throws on a
/// damaged container. An intact file is served exactly like the strict
/// open; a damaged one is salvaged — unreadable / checksum-failing
/// blocks quarantined, the surviving events / blocks / idles rebuilt
/// through trace::repair() + build_trace() with every loss recorded in
/// `report` (chares that lost data carry degraded provenance). Worst
/// case is a Fatal diagnostic and an empty Trace: a clean refusal.
/// `options.recover == false` degrades to the strict open.
[[nodiscard]] Trace open_blocked_trace(const std::string& path,
                                       const StorageOptions& options,
                                       RecoveryReport& report,
                                       int threads = 0);

}  // namespace logstruct::trace::storage
