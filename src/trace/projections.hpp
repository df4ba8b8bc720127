#pragma once

/// \file projections.hpp
/// Charm++ Projections-style log compatibility.
///
/// The Charm++ tracing framework the paper instruments (§2.1, §5) writes
/// one text log per processor plus an .sts metadata file; Projections
/// visualizes them. This module writes and reads that shape of data so
/// traces produced here can be eyeballed against the original tooling's
/// conventions, and so the §5 additions have a concrete serialization:
///
///   <name>.sts         — entry/chare tables:
///                          ENTRY <id> <runtime> <sdag> <name...>
///                          CHARE <id> <array> <index> <runtime> <name...>
///   <name>.<pe>.log    — time-ordered records per PE:
///                          CREATION <event> <entry> <time> <dest-pe>
///                          BEGIN_PROCESSING <event> <entry> <time>
///                              <chare> <src-event>
///                          END_PROCESSING <event> <time>
///                          BEGIN_IDLE <time> / END_IDLE <time>
///
/// Event numbers are global ids; a receive's <src-event> names the
/// CREATION that produced it (-1 when the dependency was not traced —
/// the PDES situation). Collectives are not representable (they are an
/// MPI-model abstraction); exporting a trace containing them fails.

#include <string>

#include "trace/diagnostics.hpp"
#include "trace/trace.hpp"

namespace logstruct::trace {

/// Write `<prefix>.sts` and `<prefix>.<pe>.log` for every PE.
/// Returns false on I/O failure or if the trace holds collectives.
bool write_projections(const Trace& trace, const std::string& prefix);

/// Read logs written by write_projections, strictly: throws
/// std::runtime_error with the first diagnostic of malformed input or
/// missing files.
Trace read_projections(const std::string& prefix);

/// Read with explicit options; never throws on malformed content. The
/// one parser turns missing PE logs, truncated tails (crashed runs),
/// garbled lines, and dangling creation references into diagnostics in
/// `report`, and the salvage goes through trace::repair(). An
/// unreadable/foreign .sts yields a Fatal report and an empty Trace. In
/// ReadOptions::recovering() mode the salvage is returned; in strict
/// mode any diagnostic makes the result an empty Trace with
/// report.fatal() set. See docs/ROBUSTNESS.md.
Trace read_projections(const std::string& prefix,
                       const ReadOptions& options, RecoveryReport& report);

}  // namespace logstruct::trace
