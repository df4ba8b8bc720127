#pragma once

/// \file diagnostics.hpp
/// Structured ingestion diagnostics and the RecoveryReport.
///
/// Real Charm++/Projections logs are dirty: per-PE files truncate on
/// crash, tracing-buffer overflow drops send/recv partners, clock skew
/// reorders records. Every problem a reader finds becomes a Diagnostic —
/// a machine-readable (code, severity, location) record — collected into
/// a RecoveryReport, and the readers salvage what they can; strict reads
/// (ReadOptions) reject any input whose report is non-empty. See
/// docs/ROBUSTNESS.md for the full taxonomy and the repair semantics.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/ids.hpp"

namespace logstruct::trace {

/// What went wrong (or what repair() did about it). Codes < kFirstRepair
/// are input problems found while reading; codes >= kFirstRepair are
/// fixes applied by repair() to make the salvage well-formed again.
enum class DiagCode : std::uint8_t {
  // --- reader diagnostics ---------------------------------------------
  BadHeader,          ///< magic/version line unusable; nothing salvageable
  UnknownRecord,      ///< unrecognized record tag; line skipped
  ParseError,         ///< record tag known but fields garbled; line skipped
  DuplicateRecord,    ///< same record id (or identical record) seen twice
  NonSequentialId,    ///< record id skips ahead (lines lost before it)
  TruncatedFile,      ///< stream ended before the end marker
  MissingLog,         ///< a per-PE log file is absent entirely
  DanglingReference,  ///< record points at an id that never materialized
  UnmatchedScope,     ///< BEGIN without END (or vice versa); scope dropped
  IoError,            ///< file could not be opened / written
  /// A recovered structure claim contradicted the vector-clock
  /// happened-before oracle (order::check_causality): a dependency edge
  /// stepped backwards, a phase placed outside its DAG order, or a leap
  /// that fails to ascend. Reported by the analysis layer, not the
  /// readers, but carried here so the structured Diagnostic machinery
  /// (counters, JSON reports, sidecars) covers it uniformly.
  CausalityViolation,
  // Blocked-storage (.lsblk) reader diagnostics: produced by recovering
  // opens of a torn or bit-rotted container (docs/STORAGE.md).
  BlockChecksumMismatch,  ///< a stored block failed its CRC32C; quarantined
  BlockUnreadable,        ///< a block read kept failing after retries
  ContainerTruncated,     ///< footer/directory missing — torn mid-freeze
  // --- repair fixes ----------------------------------------------------
  SynthesizedBlockEnd,   ///< open/invalid block span closed artificially
  DroppedDanglingPartner,///< send/recv partner repaired away to kNone
  DroppedRecord,         ///< unsalvageable record removed
  ClampedTimestamp,      ///< out-of-order time pulled into a legal range
  DeduplicatedRecord,    ///< exact duplicate record removed
  StubbedMetadata,       ///< placeholder array/chare/entry synthesized
};

/// Number of distinct DiagCode values (for fixed-size count tables).
inline constexpr int kNumDiagCodes =
    static_cast<int>(DiagCode::StubbedMetadata) + 1;

/// First code that denotes a repair fix rather than a reader diagnostic.
inline constexpr DiagCode kFirstRepair = DiagCode::SynthesizedBlockEnd;

/// Stable lower_snake_case name, used for obs counters
/// (`trace/recovery/<name>`) and JSON reports.
const char* diag_code_name(DiagCode code);

enum class Severity : std::uint8_t {
  Note,     ///< informational (e.g. a repair fix that loses nothing)
  Warning,  ///< data was lost or altered, but locally
  Error,    ///< a whole record/scope was unusable
  Fatal,    ///< nothing could be salvaged (bad header, missing file)
};

const char* severity_name(Severity severity);

/// One structured problem: what, how bad, and where. `pe` and `line` are
/// -1 when the location does not apply (e.g. whole-file problems).
struct Diagnostic {
  DiagCode code = DiagCode::ParseError;
  Severity severity = Severity::Error;
  ProcId pe = -1;          ///< per-PE log the problem was found in
  std::int64_t line = -1;  ///< 1-based line number within that stream
  std::string detail;      ///< human-readable specifics

  /// "error[parse_error] pe=3 line=17: garbled CREATION".
  [[nodiscard]] std::string to_string() const;
};

/// Everything a recovering read found and fixed. Per-code counts are
/// always exact; the diagnostic list is capped (max_stored) so a
/// pathological input cannot balloon memory — `dropped()` says how many
/// records were counted but not stored.
class RecoveryReport {
 public:
  explicit RecoveryReport(std::size_t max_stored = 256)
      : max_stored_(max_stored), counts_(kNumDiagCodes, 0) {}

  /// Record one diagnostic (count always; store up to the cap).
  void add(Diagnostic d);

  /// Convenience: add with positional fields.
  void add(DiagCode code, Severity severity, std::string detail,
           ProcId pe = -1, std::int64_t line = -1);

  /// Merge another report into this one (counts add; stored diagnostics
  /// append up to the cap).
  void merge(const RecoveryReport& other);

  [[nodiscard]] const std::vector<Diagnostic>& diagnostics() const {
    return diags_;
  }
  [[nodiscard]] std::int64_t count(DiagCode code) const {
    return counts_[static_cast<std::size_t>(code)];
  }
  /// Total diagnostics recorded (stored or not).
  [[nodiscard]] std::int64_t total() const { return total_; }
  /// Diagnostics counted but not stored (over the cap).
  [[nodiscard]] std::int64_t dropped() const {
    return total_ - static_cast<std::int64_t>(diags_.size());
  }
  /// Repair fixes applied (sum over codes >= kFirstRepair).
  [[nodiscard]] std::int64_t repairs() const;
  /// Highest severity seen; Severity::Note when empty.
  [[nodiscard]] Severity worst() const { return worst_; }
  /// True when nothing at Error level or above was recorded — the trace
  /// may still carry Warning-level repairs.
  [[nodiscard]] bool ok() const { return worst_ < Severity::Error; }
  /// True when the input was beyond salvage (a Fatal diagnostic).
  [[nodiscard]] bool fatal() const { return worst_ == Severity::Fatal; }
  [[nodiscard]] bool empty() const { return total_ == 0; }

  /// Bump the `trace/recovery/<code>` obs counters by this report's
  /// per-code counts (so repairs are visible in sidecars/Chrome traces).
  void export_counters() const;

  /// JSON object: {"total":n,"worst":"...","counts":{...},
  /// "diagnostics":[...]} — the artifact CI uploads per fuzz run.
  [[nodiscard]] std::string to_json() const;

  /// Multi-line human-readable summary.
  [[nodiscard]] std::string to_string() const;

 private:
  std::size_t max_stored_;
  std::vector<Diagnostic> diags_;
  std::vector<std::int64_t> counts_;
  std::int64_t total_ = 0;
  Severity worst_ = Severity::Note;
};

/// How a reader should treat malformed input.
struct ReadOptions {
  /// Both modes run the same parse and trace::repair(); they differ in
  /// what a non-empty report means.
  /// false (default): strict — the first diagnostic is an error: an
  /// empty Trace with a Fatal report, or a std::runtime_error from the
  /// report-less overloads.
  /// true: recover — return the best-effort Trace plus the report;
  /// recovering reads never throw on malformed *content* (a Fatal report
  /// and an empty Trace is the worst case).
  bool recover = false;

  /// Cap on stored diagnostics (counts stay exact past it).
  std::size_t max_stored_diagnostics = 256;

  [[nodiscard]] static ReadOptions strict() { return {}; }
  [[nodiscard]] static ReadOptions recovering() {
    ReadOptions o;
    o.recover = true;
    return o;
  }
};

std::ostream& operator<<(std::ostream& os, const Diagnostic& d);

}  // namespace logstruct::trace
