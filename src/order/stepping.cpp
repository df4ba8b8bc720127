#include "order/stepping.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <queue>

#include "graph/topo.hpp"
#include "obs/obs.hpp"
#include "obs/progress.hpp"
#include "order/block_units.hpp"
#include "order/causality.hpp"
#include "order/context.hpp"
#include "order/pass_manager.hpp"
#include "order/wclock.hpp"
#include "util/check.hpp"
#include "util/csr.hpp"
#include "util/scratch.hpp"
#include "util/thread_pool.hpp"

namespace logstruct::order {

namespace {

/// One in-phase unit: its §3.2.1 sort keys, its chare group and its
/// first and last phase positions. A phase numbers its units and its
/// chare groups in order of first appearance, so a lower unit number
/// means an earlier first event.
struct UnitInfo {
  std::int32_t first = 0;  ///< phase position of the earliest event
  std::int32_t last = 0;   ///< phase position of the latest event so far
  std::int32_t group = 0;  ///< the group of the first event's chare
  /// Replay position: the maximum w over the unit's receives — the
  /// binding dependency that lets it start. Charm++ units have (at most)
  /// one receive, and it is the first event, so this matches the paper's
  /// "w of the initial event"; multi-dependency task units must sort by
  /// their last-satisfied dependency or the sequence order can contradict
  /// the message order.
  std::int64_t w = 0;
  /// Partner chare of the initial receive (-1 if none).
  std::int32_t invoker_chare = -1;
  /// The in-phase unit holding that receive's send (-1 if none or not
  /// materialized in this phase); the send's unit rep block until the
  /// phase's units are all numbered.
  std::int32_t invoker_unit = -1;
};

/// Orders one chare's units (§3.2.1): w, then invoking chare, then
/// recursion into the invoking units. The (time, id) order of the first
/// events — the unit numbering — is the total-order fallback and,
/// without reordering, the whole order.
class UnitOrder {
 public:
  UnitOrder(const std::vector<UnitInfo>& units, bool reorder)
      : units_(units), reorder_(reorder) {}

  bool operator()(std::int32_t a, std::int32_t b) const {
    if (reorder_) {
      const int c = compare(a, b, /*depth=*/8);
      if (c != 0) return c < 0;
    }
    return a < b;
  }

 private:
  [[nodiscard]] const UnitInfo& unit(std::int32_t u) const {
    return units_[static_cast<std::size_t>(u)];
  }

  int compare(std::int32_t a, std::int32_t b, int depth) const {
    const UnitInfo& ua = unit(a);
    const UnitInfo& ub = unit(b);
    if (ua.w != ub.w) return ua.w < ub.w ? -1 : 1;
    if (ua.invoker_chare != ub.invoker_chare)
      return ua.invoker_chare < ub.invoker_chare ? -1 : 1;
    const std::int32_t ia = ua.invoker_unit;
    const std::int32_t ib = ub.invoker_unit;
    if (depth > 0 && ia >= 0 && ib >= 0 && ia != ib && ia != a && ib != b)
      return compare(ia, ib, depth - 1);
    return 0;
  }

  const std::vector<UnitInfo>& units_;
  bool reorder_;
};

/// One phase's working set, reused from phase to phase: tables keyed by
/// unit rep block and by chare (scoped to the phase by their stamps),
/// then rows by unit, by chare group and by phase position.
struct PhaseScratch {
  util::StampedTable<std::int32_t> unit_index;   ///< rep block -> unit
  util::StampedTable<std::int32_t> chare_group;  ///< chare -> group
  std::vector<UnitInfo> units;
  /// Units by group: group g's are unit_order[group_begin[g],
  /// group_begin[g + 1]).
  std::vector<std::int32_t> group_begin;
  std::vector<std::int32_t> unit_order;
  std::vector<std::int32_t> last_step;  ///< per group
  // Per phase position.
  std::vector<std::int32_t> group_of;
  std::vector<std::int32_t> seq_pred;  ///< previous event in the sequence
  /// Successors in CSR form: succ[succ_begin[i], succ_begin[i + 1]).
  std::vector<std::int32_t> succ_begin;
  std::vector<std::int32_t> succ;
  std::vector<std::int32_t> indeg;
  std::vector<std::int32_t> step;  ///< -1 = unsettled
  std::vector<std::int32_t> pred_max;
};

/// "reorder" pass (§3.2.1): fill ctx.w with the idealized-replay clock,
/// or zeros when reordering is disabled (physical-time stepping).
void reorder_pass(OrderContext& ctx) {
  const Options& opts = ctx.options();
  if (opts.step.reorder) {
    ctx.w = compute_w(ctx.trace(), ctx.event_rows(), ctx.phases,
                      ctx.unit_of_block(), opts.step,
                      opts.effective_threads());
  } else {
    ctx.w.assign(static_cast<std::size_t>(ctx.trace().num_events()), 0);
  }
}

/// "stepping" pass (§3.2.2-§3.3): order units per chare, settle every
/// event of a phase in dependency order, stitch global steps via phase
/// offsets.
void stepping_pass(OrderContext& ctx) {
  const trace::Trace& trace = ctx.trace();
  const Options& opts = ctx.options();
  PhaseResult& phases = ctx.phases;

  OBS_SPAN(span, "order/stepping");
  span.attr("phases", phases.num_phases());
  span.attr("events", trace.num_events());
  LogicalStructure& out = ctx.structure;
  const std::vector<trace::BlockId>& unit_of_block = ctx.unit_of_block();
  const EventRows& rows = ctx.event_rows();
  auto at = [](auto& v, std::int32_t i) -> auto& {
    return v[static_cast<std::size_t>(i)];
  };

  const auto num_events = static_cast<std::size_t>(trace.num_events());
  const auto num_phases = static_cast<std::size_t>(phases.num_phases());
  out.w = std::move(ctx.w);
  if (out.w.empty()) out.w.assign(num_events, 0);
  out.local_step.assign(num_events, 0);
  out.global_step.assign(num_events, 0);
  out.phase_offset.assign(num_phases, 0);
  out.phase_height.assign(num_phases, 0);

  // Every phase's events in settle order, laid end to end: phase ph owns
  // settled[phase_begin[ph], phase_begin[ph + 1]).
  std::vector<std::int32_t> phase_begin(num_phases + 1, 0);
  for (std::size_t p = 0; p < num_phases; ++p)
    phase_begin[p + 1] = phase_begin[p] +
                         static_cast<std::int32_t>(phases.events[p].size());
  std::vector<trace::EventId> settled(num_events);
  std::vector<std::int32_t> conflicts(num_phases, 0);

  // Phases are mutually independent here: every vector indexed below is
  // written at per-phase or per-event (single owning phase) positions, so
  // the loop parallelizes without synchronization (§3.3). Inside a phase
  // everything is indexed by phase position.
  auto process_phase = [&](std::int32_t ph, PhaseScratch& s) {
    const auto& events = at(phases.events, ph);
    const auto n = static_cast<std::int32_t>(events.size());
    auto in_phase = [&](trace::EventId e) {
      return at(phases.phase_of_event, e) == ph;
    };
    // Until the phase settles, local_step holds each of its events' phase
    // position.
    for (std::int32_t i = 0; i < n; ++i) at(out.local_step, at(events, i)) = i;
    // fn(from) for each in-phase send the event at position i receives
    // from: its partner, then its collective's sends.
    auto for_each_sender = [&](std::int32_t i, auto&& fn) {
      const trace::EventId e = at(events, i);
      if (at(rows.kind, e) != trace::EventKind::Recv) return;
      const trace::EventId partner = at(rows.partner, e);
      if (partner != trace::kNone && in_phase(partner))
        fn(at(out.local_step, partner));
      const std::int32_t coll = at(rows.collective, e);
      if (coll < 0) return;
      for (trace::EventId snd : trace.collectives()[static_cast<std::size_t>(
               coll)].sends)
        if (in_phase(snd)) fn(at(out.local_step, snd));
    };

    s.unit_index.resize(unit_of_block.size());
    s.chare_group.resize(static_cast<std::size_t>(trace.num_chares()));
    s.units.clear();
    s.group_of.resize(events.size());
    s.seq_pred.resize(events.size());
    std::int32_t groups = 0;

    // One sweep in time order: each event's unit, numbered at first
    // appearance, the unit sort keys, the unit's previous event (its
    // sequence predecessor inside the unit).
    for (std::int32_t i = 0; i < n; ++i) {
      const trace::EventId e = at(events, i);
      const bool recv = at(rows.kind, e) == trace::EventKind::Recv;
      const trace::BlockId rep = at(unit_of_block, at(rows.block, e));
      std::int32_t* index = s.unit_index.find(ph, rep);
      if (index == nullptr) {
        index = &s.unit_index.set(ph, rep);
        *index = static_cast<std::int32_t>(s.units.size());
        UnitInfo& unit = s.units.emplace_back();
        unit.first = unit.last = i;
        const trace::ChareId chare = at(rows.chare, e);
        const std::int32_t* group = s.chare_group.find(ph, chare);
        unit.group = group ? *group : (s.chare_group.set(ph, chare) = groups++);
        unit.w = at(out.w, e);
        const trace::EventId partner = at(rows.partner, e);
        if (opts.step.reorder && recv && partner != trace::kNone) {
          unit.invoker_chare = at(rows.chare, partner);
          unit.invoker_unit = at(unit_of_block, at(rows.block, partner));
        }
      }
      UnitInfo& unit = at(s.units, *index);
      at(s.group_of, i) = unit.group;
      at(s.seq_pred, i) = unit.first == i ? -1 : unit.last;
      unit.last = i;
      if (recv) unit.w = std::max(unit.w, at(out.w, e));
    }
    for (UnitInfo& unit : s.units) {
      if (unit.invoker_unit < 0) continue;
      const std::int32_t* index = s.unit_index.find(ph, unit.invoker_unit);
      unit.invoker_unit = index ? *index : -1;
    }

    // Chare sequences: units grouped by chare by a stable counting
    // scatter (so each group starts in first-appearance order), each
    // group sorted by the unit order; events follow their unit's rank,
    // in time order within the unit, so a unit's first event follows
    // the last event of the unit sorted before it.
    util::csr_scatter(
        static_cast<std::size_t>(groups),
        [&](auto emit) {
          for (std::size_t u = 0; u < s.units.size(); ++u)
            emit(s.units[u].group, u);
        },
        s.group_begin, s.unit_order);
    const UnitOrder unit_order(s.units, opts.step.reorder);
    for (std::int32_t g = 0; g < groups; ++g) {
      const auto lo = s.unit_order.begin() + at(s.group_begin, g);
      const auto hi = s.unit_order.begin() + at(s.group_begin, g + 1);
      std::sort(lo, hi, unit_order);
      for (auto it = lo; it + 1 < hi; ++it)
        at(s.seq_pred, at(s.units, it[1]).first) = at(s.units, it[0]).last;
    }

    // Kahn over message + sequence edges (in-phase send -> receive,
    // collective sends included): each row holds its message successors
    // in receive order, then its sequence successor.
    util::csr_scatter(
        events.size(),
        [&](auto emit) {
          for (std::int32_t i = 0; i < n; ++i)
            for_each_sender(i, [&](std::int32_t from) { emit(from, i); });
          for (std::int32_t i = 0; i < n; ++i) emit(at(s.seq_pred, i), i);
        },
        s.succ_begin, s.succ);
    s.indeg.assign(events.size(), 0);
    for (const std::int32_t i : s.succ) ++at(s.indeg, i);

    // The one step rule (§3.2.2): one past the step of the event settled
    // last on the chare in this phase and of every in-phase send the
    // event receives from (`pred_max`, the largest step a settled
    // predecessor pushed). A chare's in-phase sequence is its settle
    // order, which is its unit order whenever Kahn never stalls.
    s.step.assign(events.size(), -1);
    s.pred_max.assign(events.size(), -1);
    s.last_step.assign(static_cast<std::size_t>(groups), -1);
    // Kahn's FIFO is the phase's slice of `settled`: every settled
    // position passes through it, so it ends as the settle order.
    std::int32_t* queue = settled.data() + at(phase_begin, ph);
    std::int32_t tail = 0;
    std::int32_t height = 0;
    // Conflict candidates by phase position, kept only once Kahn stalls.
    std::priority_queue<std::int32_t, std::vector<std::int32_t>,
                        std::greater<>>
        candidates;
    bool stalled = false;
    // A stall candidate has every happened-before predecessor settled:
    // its in-phase senders and, when it is in the same trace block, its
    // sequence predecessor. Only a cross-block sequence edge (an order
    // the unit sort chose) is left unsatisfied.
    auto is_candidate = [&](std::int32_t i) {
      const std::int32_t p = at(s.seq_pred, i);
      return at(s.step, i) < 0 && at(s.indeg, i) == 1 && p >= 0 &&
             at(s.step, p) < 0 &&
             at(rows.block, at(events, p)) != at(rows.block, at(events, i));
    };
    auto settle = [&](std::int32_t i) {
      std::int32_t& last = at(s.last_step, at(s.group_of, i));
      last = std::max(last, at(s.pred_max, i)) + 1;
      at(s.step, i) = last;
      height = std::max(height, last);
      for (std::int32_t j = at(s.succ_begin, i); j < at(s.succ_begin, i + 1);
           ++j) {
        const std::int32_t k = at(s.succ, j);
        at(s.pred_max, k) = std::max(at(s.pred_max, k), last);
        if (--at(s.indeg, k) == 0) {
          if (at(s.step, k) < 0) queue[tail++] = k;
        } else if (stalled && is_candidate(k)) {
          candidates.push(k);
        }
      }
    };

    for (std::int32_t i = 0; i < n; ++i)
      if (at(s.indeg, i) == 0) queue[tail++] = i;
    for (std::int32_t head = 0; head < n; ++head) {
      if (head == tail) {
        // The unit order contradicts the messages (a dependency cycle):
        // settle the earliest event whose happened-before predecessors
        // are all settled. One always exists, because happened-before is
        // acyclic.
        if (!stalled) {
          stalled = true;
          for (std::int32_t i = 0; i < n; ++i)
            if (is_candidate(i)) candidates.push(i);
        }
        while (!candidates.empty() && at(s.step, candidates.top()) >= 0)
          candidates.pop();
        LS_CHECK_MSG(!candidates.empty(),
                     "stepping: cyclic happened-before inside a phase");
        ++at(conflicts, ph);
        queue[tail++] = candidates.top();
      }
      settle(queue[head]);
    }

    for (std::int32_t i = 0; i < n; ++i) {
      at(out.local_step, at(events, i)) = at(s.step, i);
      queue[i] = at(events, queue[i]);
    }
    at(out.phase_height, ph) = height;
  };

  const int threads = opts.effective_threads();
  span.attr("threads", threads);
  obs::Progress progress("order/stepping", phases.num_phases());
  util::ScratchPool<PhaseScratch> pool;
  util::parallel_for(threads, phases.num_phases(), [&](std::int64_t ph) {
    pool.with([&](PhaseScratch& s) {
      process_phase(static_cast<std::int32_t>(ph), s);
    });
    obs::Progress::tick();
  });
  for (std::int32_t c : conflicts) out.order_conflicts += c;

  // Phase offsets along the phase DAG.
  for (graph::NodeId p : graph::topological_order(phases.dag)) {
    std::int32_t offset = 0;
    for (graph::NodeId pred : phases.dag.predecessors(p)) {
      offset = std::max(offset, at(out.phase_offset, pred) +
                                    at(out.phase_height, pred) + 1);
    }
    at(out.phase_offset, p) = offset;
  }

  for (std::size_t e = 0; e < num_events; ++e) {
    out.global_step[e] =
        at(out.phase_offset, phases.phase_of_event[e]) + out.local_step[e];
    out.max_step = std::max(out.max_step, out.global_step[e]);
  }

  // Global per-chare sequences: phases in offset order, each in settle
  // order, scattered by chare into rows sized by a count.
  std::vector<std::int32_t> phase_order(num_phases);
  std::iota(phase_order.begin(), phase_order.end(), 0);
  std::stable_sort(phase_order.begin(), phase_order.end(),
                   [&](std::int32_t a, std::int32_t b) {
                     return at(out.phase_offset, a) < at(out.phase_offset, b);
                   });
  std::vector<std::int32_t> cursor(static_cast<std::size_t>(trace.num_chares()),
                                   0);
  for (trace::ChareId c : rows.chare) ++at(cursor, c);
  out.chare_sequence.assign(cursor.size(), {});
  for (std::size_t c = 0; c < cursor.size(); ++c) {
    out.chare_sequence[c].resize(static_cast<std::size_t>(cursor[c]));
    cursor[c] = 0;
  }
  out.pos_in_chare.assign(num_events, 0);
  for (std::int32_t ph : phase_order) {
    for (std::int32_t k = at(phase_begin, ph); k < at(phase_begin, ph + 1);
         ++k) {
      const trace::EventId e = at(settled, k);
      const trace::ChareId c = at(rows.chare, e);
      at(out.pos_in_chare, e) = at(cursor, c);
      at(at(out.chare_sequence, c), at(cursor, c)++) = e;
    }
  }

  out.phases = std::move(phases);
  span.attr("max_step", out.max_step);
  span.attr("order_conflicts", out.order_conflicts);
  OBS_COUNTER_ADD("order/stepping/order_conflicts", out.order_conflicts);
}

}  // namespace

void run_stepping_pipeline(OrderContext& ctx,
                           std::vector<PassRecord>* records) {
  ctx.release_pg();
  PassManager pm(ctx.options().partition.check_passes);
  pm.add({.name = "reorder",
          .run = reorder_pass,
          .parallelism = Parallelism::kPhaseParallel});
  pm.add({.name = "stepping",
          .run = stepping_pass,
          .own_span = true,
          .parallelism = Parallelism::kPhaseParallel});
  // Opt-in second oracle (order/causality.hpp): after stepping, verify
  // the finished structure against the vector-clock happened-before
  // relation; abort with event/edge provenance on the first lie.
  pm.add({.name = "check_causality",
          .run = check_causality_pass,
          .enabled =
              ctx.options().check_causality || causality_check_forced(),
          .parallelism = Parallelism::kPhaseParallel});
  pm.run(ctx);
  if (records)
    records->insert(records->end(), pm.records().begin(),
                    pm.records().end());
}

LogicalStructure assign_steps(const trace::Trace& trace, PhaseResult phases,
                              const Options& opts) {
  OrderContext ctx(trace, opts);
  ctx.phases = std::move(phases);
  run_stepping_pipeline(ctx);
  return std::move(ctx.structure);
}

LogicalStructure extract_structure(const trace::Trace& trace,
                                   const Options& opts) {
  OBS_SPAN(span, "order/extract_structure");
  span.attr("events", trace.num_events());
  OrderContext ctx(trace, opts);
  run_partition_pipeline(ctx, nullptr, nullptr);
  run_stepping_pipeline(ctx);
  return std::move(ctx.structure);
}

}  // namespace logstruct::order
