#pragma once

/// \file io.hpp
/// Plain-text trace serialization (.lstrace).
///
/// A line-oriented format in the spirit of Charm++ Projections logs: one
/// record per line, fully self-contained, diff-friendly. Used by the
/// trace_inspect example and to archive simulator outputs.
///
/// There is one parser. It skips garbled lines, tolerates a truncated tail
/// and runs trace::repair() on the salvage, recording every problem in a
/// RecoveryReport. The two reading modes (see docs/ROBUSTNESS.md) differ
/// only in what happens when that report is non-empty:
///  - recovering (ReadOptions::recovering()): return the best-effort
///    Trace plus the report. Never throws on malformed content; the worst
///    case is a Fatal report with an empty Trace.
///  - strict (default): the first diagnostic is an error — right for
///    archived traces that are supposed to be clean. The report overloads
///    return an empty Trace with report.fatal() set; the report-less
///    overloads throw std::runtime_error carrying that diagnostic.

#include <iosfwd>
#include <string>

#include "trace/diagnostics.hpp"
#include "trace/trace.hpp"

namespace logstruct::trace {

/// Serialize a trace; deterministic byte-for-byte for a given trace.
void write_trace(const Trace& trace, std::ostream& out);

/// Parse a trace written by write_trace, strictly: throws
/// std::runtime_error with the first diagnostic of a malformed input.
Trace read_trace(std::istream& in);

/// Parse with explicit options; never throws on malformed content. Every
/// problem lands in `report`. In strict mode any problem makes the
/// result an empty Trace with report.fatal() set, so `report` stays
/// empty exactly when the read succeeded.
Trace read_trace(std::istream& in, const ReadOptions& options,
                 RecoveryReport& report);

/// File wrappers. Both report failure the same way: a structured
/// DiagCode::IoError (or reader diagnostics) in `report`, never an
/// exception. save_trace returns false iff the file could not be written;
/// load_trace reads exactly like read_trace, and a missing file is a
/// Fatal IoError with an empty Trace in either mode.
bool save_trace(const Trace& trace, const std::string& path,
                RecoveryReport& report);
Trace load_trace(const std::string& path, const ReadOptions& options,
                 RecoveryReport& report);

/// Conveniences: save_trace returns false on I/O failure (dropping the
/// diagnostics); load_trace reads strictly and throws std::runtime_error
/// with the first diagnostic when the file is missing or malformed.
bool save_trace(const Trace& trace, const std::string& path);
Trace load_trace(const std::string& path);

}  // namespace logstruct::trace
