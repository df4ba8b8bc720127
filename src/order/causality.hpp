#pragma once

/// \file causality.hpp
/// The vector-clock causality engine: a second ordering oracle.
///
/// The happened-before relation of a trace is the transitive closure of
/// (a) the total order of events inside each serial block and (b) the
/// rows of the frozen dependency table (point-to-point matches, broadcast
/// fan-outs, collective sends x recvs). Everything the pipeline recovers
/// — partition-graph edges, leaps, stepping placements — is a claim about
/// this relation, and the 12 golden hashes can only detect when a claim
/// regresses, never *explain* it. The CausalityOracle answers hb(a, b)
/// exactly and independently of the pipeline, so property tests can use
/// it (not the hashes) as ground truth, and the opt-in `check_causality`
/// pass can point at the precise event pair a broken pass reordered.
///
/// Construction is one parallel topological sweep over the reverse-CSR
/// IncomingDeps view: Kahn level waves (level = longest predecessor
/// chain) followed by a per-wave clock merge. Every event's clock is a
/// pure function of its predecessors' final clocks, so the result is
/// bit-identical for any thread count on either storage backend. Clocks
/// are sparse and clamped (order/hbclock.hpp): events whose merged clock
/// would exceed `max_clock_entries` saturate, and queries against
/// saturated events fall back to a level-pruned backward walk that
/// consults stored clocks en route — exact in all cases, memory bounded
/// in all cases. See docs/CAUSALITY.md.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/digraph.hpp"
#include "order/hbclock.hpp"
#include "order/options.hpp"
#include "order/stepping.hpp"
#include "trace/depview.hpp"
#include "trace/diagnostics.hpp"
#include "trace/trace.hpp"

namespace logstruct::order {

/// Phase-DAG ancestor bitsets (each phase includes itself), computed in
/// topological order: anc(q) = {q} U anc(p) over every DAG edge p -> q.
/// O(P^2 / 64) words — phases number in the hundreds even on large
/// traces — and a reachability query is one bit test. Shared by the
/// causality checker (phase placement of dependency edges) and the
/// concurrency metric (causally-unordered phase pairs).
class PhaseReachability {
 public:
  explicit PhaseReachability(const graph::Digraph& dag);

  /// True iff p == q or a DAG path p -> ... -> q exists.
  [[nodiscard]] bool reaches(std::int32_t p, std::int32_t q) const {
    const std::uint64_t* row =
        bits_.data() + static_cast<std::size_t>(q) * words_;
    return (row[static_cast<std::size_t>(p) / 64] >> (p % 64)) & 1u;
  }

  /// True iff neither phase reaches the other: the phases are causally
  /// concurrent and could have executed in either order.
  [[nodiscard]] bool concurrent(std::int32_t p, std::int32_t q) const {
    return p != q && !reaches(p, q) && !reaches(q, p);
  }

  [[nodiscard]] std::int32_t num_phases() const { return num_; }

 private:
  std::int32_t num_ = 0;
  std::size_t words_ = 0;
  std::vector<std::uint64_t> bits_;
};

struct CausalityOptions {
  /// Per-event clock entry budget; an event whose merged clock would
  /// carry more chains saturates (exact queries via the fallback walk).
  /// The default keeps million-event traces near events x 32 x 8 bytes
  /// worst case while leaving typical stencil traces unclamped.
  std::int32_t max_clock_entries = 32;

  /// Worker threads for the level waves. 0 = util::default_parallelism().
  int threads = 0;
};

class CausalityOracle {
 public:
  explicit CausalityOracle(const trace::Trace& trace,
                           const CausalityOptions& opts = {});

  /// Exact happened-before: true iff a != b and there is a path from a
  /// to b through intra-block order and dependency rows. Thread-safe
  /// (const; the fallback walk allocates its own scratch).
  [[nodiscard]] bool hb(trace::EventId a, trace::EventId b) const;

  /// True iff neither hb(a, b) nor hb(b, a): the pair is causally
  /// concurrent and could have executed in either order.
  [[nodiscard]] bool concurrent(trace::EventId a, trace::EventId b) const {
    return a != b && !hb(a, b) && !hb(b, a);
  }

  /// Topological level (longest predecessor chain, >= 1). A cheap
  /// necessary condition: hb(a, b) implies level(a) < level(b).
  [[nodiscard]] std::int32_t level(trace::EventId e) const {
    return level_[static_cast<std::size_t>(e)];
  }
  [[nodiscard]] std::int32_t max_level() const { return max_level_; }

  [[nodiscard]] const HbClock& clock(trace::EventId e) const {
    return clocks_[static_cast<std::size_t>(e)];
  }

  /// Events whose clock saturated under the entry budget.
  [[nodiscard]] std::int64_t saturated_events() const { return saturated_; }
  /// Stored clock entries across all events.
  [[nodiscard]] std::int64_t total_clock_entries() const {
    return total_entries_;
  }
  /// Heap bytes held by the clock tables.
  [[nodiscard]] std::int64_t memory_bytes() const { return memory_bytes_; }
  [[nodiscard]] std::int32_t num_events() const {
    return static_cast<std::int32_t>(level_.size());
  }

 private:
  /// Direct predecessors of e: intra-chain predecessor (implicit) plus
  /// the incoming dependency senders deps_.senders(e).
  [[nodiscard]] bool walk_hb(trace::EventId a, trace::EventId b) const;

  const trace::Trace* trace_;
  trace::IncomingDeps deps_;
  std::vector<std::int32_t> chain_;
  std::vector<std::int32_t> pos_;
  std::vector<trace::EventId> chain_pred_;  ///< kNone at chain heads
  std::vector<std::int32_t> level_;
  std::vector<HbClock> clocks_;
  std::int32_t max_level_ = 0;
  std::int64_t saturated_ = 0;
  std::int64_t total_entries_ = 0;
  std::int64_t memory_bytes_ = 0;
};

/// One structure claim the recovered output makes that contradicts
/// happened-before, with exact provenance.
struct CausalityViolation {
  enum class Kind : std::uint8_t {
    StepOrder,       ///< dep edge (a, b) but global_step(a) >= step(b)
    PhaseOrder,      ///< dep edge crosses phases with no phase-DAG path
    BlockStepOrder,  ///< intra-block successor stepped before predecessor
    BlockPhaseOrder, ///< intra-block successor's phase not reachable
    LeapOrder,       ///< phase-DAG edge (p, q) but leap(p) >= leap(q)
    OffsetOrder,     ///< phase-DAG edge but offsets overlap
  };
  Kind kind = Kind::StepOrder;
  trace::EventId a = trace::kNone;  ///< kNone for phase-level violations
  trace::EventId b = trace::kNone;
  std::int32_t phase_a = -1;
  std::int32_t phase_b = -1;
  std::string detail;  ///< human-readable specifics (steps, leaps, ...)
};

const char* causality_violation_kind_name(CausalityViolation::Kind kind);

/// What check_causality() verified and what it found. Violations are
/// capped at `max_stored` (counts stay exact).
struct CausalityReport {
  std::int64_t edges_checked = 0;      ///< dep rows + intra-block pairs
  std::int64_t phase_edges_checked = 0;
  std::int64_t skipped_degraded = 0;   ///< edges quarantined, not judged
  std::int64_t skipped_non_hb = 0;     ///< rows the oracle refused to certify
  std::int64_t total_violations = 0;
  std::vector<CausalityViolation> violations;  ///< first max_stored

  [[nodiscard]] bool clean() const { return total_violations == 0; }

  /// Mirror the violations into a trace::RecoveryReport as
  /// DiagCode::CausalityViolation diagnostics (structured provenance for
  /// sidecars and tests).
  void to_diagnostics(trace::RecoveryReport& report) const;
};

/// Verify that a recovered LogicalStructure respects happened-before.
/// Sound and complete over the *generating* HB edges: every dependency
/// row and every consecutive intra-block pair is checked for step
/// monotonicity and phase reachability, and every phase-DAG edge for
/// leap and offset monotonicity; transitivity extends the guarantee to
/// all HB pairs, so a clean report means no HB pair is mis-ordered.
/// Edges touching a degraded phase are skipped and counted (repaired
/// dependencies are not ground truth). `max_stored` caps the stored
/// violation list.
CausalityReport check_causality(const trace::Trace& trace,
                                const LogicalStructure& ls,
                                std::size_t max_stored = 64);

/// Same, against an already-built oracle (the pass reuses the oracle it
/// constructed for the `order/causality/*` counters).
CausalityReport check_causality(const trace::Trace& trace,
                                const LogicalStructure& ls,
                                const CausalityOracle& oracle,
                                std::size_t max_stored = 64);

class OrderContext;

/// The "check_causality" pass body: builds the oracle over ctx.trace()
/// (publishing the `order/causality/*` counters), runs check_causality
/// over ctx.structure, and aborts with the first violations' provenance
/// on stderr when the structure is not causality-clean — the same
/// fail-loud contract as LOGSTRUCT_CHECK_PASSES. Registered by
/// run_stepping_pipeline after "stepping"; enabled by
/// Options::check_causality or the LOGSTRUCT_CHECK_CAUSALITY env var.
void check_causality_pass(OrderContext& ctx);

/// True when LOGSTRUCT_CHECK_CAUSALITY forces the pass on (same
/// convention as PassManager::invariant_check_forced: set and not "0").
bool causality_check_forced();

}  // namespace logstruct::order
