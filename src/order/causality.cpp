#include "order/causality.hpp"

#include <cstdio>
#include <cstdlib>

#include "graph/topo.hpp"
#include "obs/obs.hpp"
#include "order/context.hpp"
#include "util/check.hpp"
#include "util/csr.hpp"
#include "util/thread_pool.hpp"

namespace logstruct::order {

PhaseReachability::PhaseReachability(const graph::Digraph& dag)
    : num_(dag.num_nodes()),
      words_((static_cast<std::size_t>(num_) + 63) / 64),
      bits_(static_cast<std::size_t>(num_) * words_, 0) {
  for (graph::NodeId q : graph::topological_order(dag)) {
    std::uint64_t* row =
        bits_.data() + static_cast<std::size_t>(q) * words_;
    row[static_cast<std::size_t>(q) / 64] |= 1ull << (q % 64);
    for (graph::NodeId p : dag.predecessors(q)) {
      const std::uint64_t* prow =
          bits_.data() + static_cast<std::size_t>(p) * words_;
      for (std::size_t w = 0; w < words_; ++w) row[w] |= prow[w];
    }
  }
}

CausalityOracle::CausalityOracle(const trace::Trace& trace,
                                 const CausalityOptions& opts)
    : trace_(&trace), deps_(trace) {
  OBS_SPAN(span, "order/causality/build");
  const auto n = static_cast<std::size_t>(trace.num_events());
  span.attr("events", trace.num_events());

  // Chain coordinates: one chain per serial block (events_of_block is
  // already the block's total order), a synthetic singleton chain per
  // blockless event.
  chain_.assign(n, -1);
  pos_.assign(n, 0);
  chain_pred_.assign(n, trace::kNone);
  for (trace::BlockId b = 0; b < trace.num_blocks(); ++b) {
    trace::EventId prev = trace::kNone;
    std::int32_t pos = 0;
    for (trace::EventId e : trace.events_of_block(b)) {
      chain_[static_cast<std::size_t>(e)] = b;
      pos_[static_cast<std::size_t>(e)] = pos++;
      chain_pred_[static_cast<std::size_t>(e)] = prev;
      prev = e;
    }
  }
  std::int32_t next_chain = trace.num_blocks();
  for (std::size_t e = 0; e < n; ++e)
    if (chain_[e] < 0) chain_[e] = next_chain++;

  // Kahn levels: level(e) = 1 + max level over direct predecessors.
  // Serial — O(V + E) — so wave membership is trivially deterministic;
  // only the clock merges below fan out.
  level_.assign(n, 0);
  std::vector<std::int32_t> indeg(n, 0);
  std::vector<trace::EventId> chain_succ(n, trace::kNone);
  for (std::size_t e = 0; e < n; ++e) {
    indeg[e] = static_cast<std::int32_t>(deps_.senders(
                   static_cast<trace::EventId>(e)).size()) +
               (chain_pred_[e] != trace::kNone ? 1 : 0);
    if (chain_pred_[e] != trace::kNone)
      chain_succ[static_cast<std::size_t>(chain_pred_[e])] =
          static_cast<trace::EventId>(e);
  }
  // Dependency successors: the view's rows turned around, each row in
  // ascending receive id.
  std::vector<std::int64_t> out_begin;
  std::vector<trace::EventId> out_succ;
  util::csr_scatter(
      n,
      [&](auto emit) {
        for (std::size_t e = 0; e < n; ++e)
          for (trace::EventId s : deps_.senders(static_cast<trace::EventId>(e)))
            emit(s, e);
      },
      out_begin, out_succ);
  std::vector<trace::EventId> queue;
  queue.reserve(n);
  for (std::size_t e = 0; e < n; ++e)
    if (indeg[e] == 0) {
      level_[e] = 1;
      queue.push_back(static_cast<trace::EventId>(e));
    }
  std::size_t head = 0;
  auto relax = [&](trace::EventId u, trace::EventId v) {
    const auto uu = static_cast<std::size_t>(u);
    const auto vv = static_cast<std::size_t>(v);
    if (level_[uu] + 1 > level_[vv]) level_[vv] = level_[uu] + 1;
    if (--indeg[vv] == 0) queue.push_back(v);
  };
  while (head < queue.size()) {
    const trace::EventId u = queue[head++];
    const auto uu = static_cast<std::size_t>(u);
    if (chain_succ[uu] != trace::kNone) relax(u, chain_succ[uu]);
    for (std::int64_t i = out_begin[uu]; i < out_begin[uu + 1]; ++i)
      relax(u, out_succ[static_cast<std::size_t>(i)]);
  }
  // A cycle (contradictory input: only possible in hand-built or
  // corrupted traces) leaves events unqueued. Give them a sentinel
  // level past every acyclic one; their clocks saturate, and the
  // fallback walk's visited set keeps queries terminating.
  std::int32_t acyclic_max = 0;
  for (std::size_t e = 0; e < n; ++e)
    acyclic_max = std::max(acyclic_max, level_[e]);
  bool cyclic = queue.size() < n;
  if (cyclic) {
    for (std::size_t e = 0; e < n; ++e)
      if (indeg[e] > 0) level_[e] = acyclic_max + 1;
  }
  max_level_ = cyclic ? acyclic_max + 1 : acyclic_max;

  // Group events into level waves (counting sort, ascending event id
  // within a wave) and merge clocks one wave at a time: every event in
  // wave k has all predecessors in waves < k, so each clock is a pure
  // function of final predecessor clocks — index-owned writes, bit-
  // identical for any thread count.
  std::vector<std::int64_t> wave_begin;
  std::vector<trace::EventId> wave_events;
  util::csr_scatter(
      static_cast<std::size_t>(max_level_) + 1,
      [&](auto emit) {
        for (std::size_t e = 0; e < n; ++e) emit(level_[e], e);
      },
      wave_begin, wave_events);

  clocks_.assign(n, HbClock{});
  const int threads = util::resolve_threads(opts.threads);
  const std::int32_t budget = std::max(1, opts.max_clock_entries);
  span.attr("threads", threads);
  span.attr("levels", max_level_);
  for (std::int32_t lvl = 1; lvl <= max_level_; ++lvl) {
    const std::int64_t lo = wave_begin[static_cast<std::size_t>(lvl)];
    const std::int64_t hi =
        wave_begin[static_cast<std::size_t>(lvl) + 1];
    util::parallel_for(threads, hi - lo, [&](std::int64_t i) {
      const trace::EventId e =
          wave_events[static_cast<std::size_t>(lo + i)];
      const auto ee = static_cast<std::size_t>(e);
      HbClock& c = clocks_[ee];
      if (cyclic && indeg[ee] > 0) {
        c.saturate();  // cycle member: no well-defined ancestor set
        return;
      }
      if (chain_pred_[ee] != trace::kNone)
        c.merge(clocks_[static_cast<std::size_t>(chain_pred_[ee])]);
      for (trace::EventId s : deps_.senders(e)) {
        if (c.saturated()) break;
        c.merge(clocks_[static_cast<std::size_t>(s)]);
      }
      if (!c.saturated()) c.raise(chain_[ee], pos_[ee] + 1);
      if (c.num_entries() > budget) c.saturate();
    });
  }

  for (std::size_t e = 0; e < n; ++e) {
    if (clocks_[e].saturated()) ++saturated_;
    total_entries_ += clocks_[e].num_entries();
    memory_bytes_ += clocks_[e].memory_bytes();
  }
  memory_bytes_ += static_cast<std::int64_t>(
      clocks_.capacity() * sizeof(HbClock) +
      (chain_.capacity() + pos_.capacity() + level_.capacity()) *
          sizeof(std::int32_t) +
      chain_pred_.capacity() * sizeof(trace::EventId)) +
      deps_.memory_bytes();
  span.attr("saturated", saturated_);
  span.attr("clock_entries", total_entries_);
  OBS_COUNTER_ADD("order/causality/clock_builds", 1);
  OBS_COUNTER_ADD("order/causality/saturated_clocks", saturated_);
  OBS_COUNTER_ADD("order/causality/clock_entries", total_entries_);
}

bool CausalityOracle::hb(trace::EventId a, trace::EventId b) const {
  if (a == b || a == trace::kNone || b == trace::kNone) return false;
  const auto aa = static_cast<std::size_t>(a);
  const auto bb = static_cast<std::size_t>(b);
  if (chain_[aa] == chain_[bb]) return pos_[aa] < pos_[bb];
  if (level_[aa] >= level_[bb]) return false;
  if (!clocks_[bb].saturated())
    return clocks_[bb].covers(chain_[aa], pos_[aa]);
  return walk_hb(a, b);
}

/// Level-pruned backward DFS for queries whose target clock saturated:
/// expand direct predecessors, answer from any non-saturated clock met
/// on the way (exact, so no expansion past it), prune below level(a).
/// Bounded by the saturated region's size; the visited set keeps even
/// contradictory (cyclic) inputs terminating.
bool CausalityOracle::walk_hb(trace::EventId a, trace::EventId b) const {
  const auto aa = static_cast<std::size_t>(a);
  const std::int32_t a_chain = chain_[aa];
  const std::int32_t a_pos = pos_[aa];
  const std::int32_t a_level = level_[aa];
  std::vector<bool> visited(level_.size(), false);
  std::vector<trace::EventId> stack;
  stack.push_back(b);
  visited[static_cast<std::size_t>(b)] = true;
  auto consider = [&](trace::EventId p) -> int {
    if (p == trace::kNone) return 0;
    const auto pp = static_cast<std::size_t>(p);
    if (p == a) return 1;
    if (chain_[pp] == a_chain) return pos_[pp] > a_pos ? 1 : 0;
    if (level_[pp] <= a_level) return 0;  // a cannot be an ancestor
    if (!clocks_[pp].saturated())
      return clocks_[pp].covers(a_chain, a_pos) ? 1 : 0;
    if (!visited[pp]) {
      visited[pp] = true;
      stack.push_back(p);
    }
    return 0;
  };
  while (!stack.empty()) {
    const trace::EventId x = stack.back();
    stack.pop_back();
    const auto xx = static_cast<std::size_t>(x);
    if (consider(chain_pred_[xx]) == 1) return true;
    for (trace::EventId s : deps_.senders(x))
      if (consider(s) == 1) return true;
  }
  return false;
}

const char* causality_violation_kind_name(CausalityViolation::Kind kind) {
  switch (kind) {
    case CausalityViolation::Kind::StepOrder: return "step_order";
    case CausalityViolation::Kind::PhaseOrder: return "phase_order";
    case CausalityViolation::Kind::BlockStepOrder:
      return "block_step_order";
    case CausalityViolation::Kind::BlockPhaseOrder:
      return "block_phase_order";
    case CausalityViolation::Kind::LeapOrder: return "leap_order";
    case CausalityViolation::Kind::OffsetOrder: return "offset_order";
  }
  return "unknown";
}

void CausalityReport::to_diagnostics(trace::RecoveryReport& report) const {
  for (const CausalityViolation& v : violations) {
    std::string detail = std::string(causality_violation_kind_name(v.kind));
    if (v.a != trace::kNone)
      detail += " events " + std::to_string(v.a) + " -> " +
                std::to_string(v.b);
    detail += " phases " + std::to_string(v.phase_a) + " -> " +
              std::to_string(v.phase_b) + ": " + v.detail;
    report.add(trace::DiagCode::CausalityViolation,
               trace::Severity::Error, std::move(detail));
  }
  // Past the storage cap the counts must stay exact, like the reader
  // reports do.
  for (std::int64_t i = static_cast<std::int64_t>(violations.size());
       i < total_violations; ++i)
    report.add(trace::DiagCode::CausalityViolation,
               trace::Severity::Error, std::string());
}

CausalityReport check_causality(const trace::Trace& trace,
                                const LogicalStructure& ls,
                                std::size_t max_stored) {
  CausalityOracle oracle(trace);
  return check_causality(trace, ls, oracle, max_stored);
}

CausalityReport check_causality(const trace::Trace& trace,
                                const LogicalStructure& ls,
                                const CausalityOracle& oracle,
                                std::size_t max_stored) {
  OBS_SPAN(span, "order/causality/check");
  CausalityReport out;
  const PhaseResult& phases = ls.phases;
  PhaseReachability reach(phases.dag);

  auto phase_of = [&](trace::EventId e) {
    return phases.phase_of_event[static_cast<std::size_t>(e)];
  };
  auto degraded = [&](std::int32_t p) { return phases.is_degraded(p); };
  auto record = [&](CausalityViolation v) {
    ++out.total_violations;
    if (out.violations.size() < max_stored)
      out.violations.push_back(std::move(v));
  };

  // Generating HB edge (a, b): the structure must step a strictly before
  // b and place b's phase at-or-after a's along the phase DAG. By
  // transitivity over the generating edges this extends to every HB
  // pair, so checking only generators is complete.
  auto check_edge = [&](trace::EventId a, trace::EventId b,
                        CausalityViolation::Kind step_kind,
                        CausalityViolation::Kind phase_kind) {
    const std::int32_t pa = phase_of(a);
    const std::int32_t pb = phase_of(b);
    if (degraded(pa) || degraded(pb)) {
      ++out.skipped_degraded;
      return;
    }
    // The oracle, not the raw table row, is the ground truth: only judge
    // the structure against edges it certifies as happened-before (a
    // duplicate or contradictory row in a hand-built trace is skipped
    // rather than turned into a false alarm).
    if (!oracle.hb(a, b)) {
      ++out.skipped_non_hb;
      return;
    }
    ++out.edges_checked;
    const std::int32_t sa = ls.global_step[static_cast<std::size_t>(a)];
    const std::int32_t sb = ls.global_step[static_cast<std::size_t>(b)];
    if (sa >= sb) {
      CausalityViolation v;
      v.kind = step_kind;
      v.a = a;
      v.b = b;
      v.phase_a = pa;
      v.phase_b = pb;
      v.detail = "global_step " + std::to_string(sa) +
                 " !< " + std::to_string(sb);
      record(std::move(v));
    }
    if (pa != pb && !reach.reaches(pa, pb)) {
      CausalityViolation v;
      v.kind = phase_kind;
      v.a = a;
      v.b = b;
      v.phase_a = pa;
      v.phase_b = pb;
      v.detail = "no phase-DAG path";
      record(std::move(v));
    }
  };

  trace.for_each_dependency([&](trace::EventId send, trace::EventId recv) {
    if (send == recv) return;
    check_edge(send, recv, CausalityViolation::Kind::StepOrder,
               CausalityViolation::Kind::PhaseOrder);
  });

  // The intra-block total order: consecutive events of one serial block
  // are the other family of generating edges.
  for (trace::BlockId b = 0; b < trace.num_blocks(); ++b) {
    trace::EventId prev = trace::kNone;
    for (trace::EventId e : trace.events_of_block(b)) {
      if (prev != trace::kNone)
        check_edge(prev, e, CausalityViolation::Kind::BlockStepOrder,
                   CausalityViolation::Kind::BlockPhaseOrder);
      prev = e;
    }
  }

  // Phase-DAG edges: leaps (longest-path levels) and stepping offsets
  // must both be strictly monotone along every recovered HB edge.
  for (auto [p, q] : phases.dag.edges()) {
    if (degraded(p) || degraded(q)) {
      ++out.skipped_degraded;
      continue;
    }
    ++out.phase_edges_checked;
    const auto lp = phases.leap[static_cast<std::size_t>(p)];
    const auto lq = phases.leap[static_cast<std::size_t>(q)];
    if (lp >= lq) {
      CausalityViolation v;
      v.kind = CausalityViolation::Kind::LeapOrder;
      v.phase_a = p;
      v.phase_b = q;
      v.detail =
          "leap " + std::to_string(lp) + " !< " + std::to_string(lq);
      record(std::move(v));
    }
    const auto off_p = ls.phase_offset[static_cast<std::size_t>(p)];
    const auto off_q = ls.phase_offset[static_cast<std::size_t>(q)];
    const auto ht_p = ls.phase_height[static_cast<std::size_t>(p)];
    if (off_q < off_p + ht_p + 1) {
      CausalityViolation v;
      v.kind = CausalityViolation::Kind::OffsetOrder;
      v.phase_a = p;
      v.phase_b = q;
      v.detail = "offset " + std::to_string(off_q) + " < " +
                 std::to_string(off_p) + " + height " +
                 std::to_string(ht_p) + " + 1";
      record(std::move(v));
    }
  }

  span.attr("edges", out.edges_checked);
  span.attr("violations", out.total_violations);
  OBS_COUNTER_ADD("order/causality/edges_checked", out.edges_checked);
  OBS_COUNTER_ADD("order/causality/phase_edges_checked",
                  out.phase_edges_checked);
  OBS_COUNTER_ADD("order/causality/skipped_degraded",
                  out.skipped_degraded);
  OBS_COUNTER_ADD("order/causality/violations", out.total_violations);
  return out;
}

bool causality_check_forced() {
  static const bool forced = [] {
    const char* v = std::getenv("LOGSTRUCT_CHECK_CAUSALITY");
    return v != nullptr && v[0] != '\0' &&
           !(v[0] == '0' && v[1] == '\0');
  }();
  return forced;
}

void check_causality_pass(OrderContext& ctx) {
  const LogicalStructure& ls = ctx.structure;
  LS_CHECK(!ls.global_step.empty() || ctx.trace().num_events() == 0);
  CausalityOptions copts;
  copts.threads = ctx.options().effective_threads();
  CausalityOracle oracle(ctx.trace(), copts);
  CausalityReport report = check_causality(ctx.trace(), ls, oracle);
  if (report.clean()) return;
  std::fprintf(stderr,
               "causality violated after order/stepping: %lld violation(s) "
               "over %lld edges\n",
               static_cast<long long>(report.total_violations),
               static_cast<long long>(report.edges_checked));
  for (std::size_t i = 0; i < report.violations.size() && i < 8; ++i) {
    const CausalityViolation& v = report.violations[i];
    std::fprintf(stderr,
                 "  [%s] events %lld -> %lld phases %d -> %d: %s\n",
                 causality_violation_kind_name(v.kind),
                 static_cast<long long>(v.a),
                 static_cast<long long>(v.b), v.phase_a, v.phase_b,
                 v.detail.c_str());
  }
  std::abort();
}

}  // namespace logstruct::order
