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
#include "util/thread_pool.hpp"

namespace logstruct::order {

namespace {

/// One in-phase unit: its §3.2.1 sort keys plus its chare.
struct UnitInfo {
  trace::EventId first = trace::kNone;  ///< earliest in-phase event
  trace::ChareId chare = trace::kNone;
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
  /// materialized in this phase).
  std::int32_t invoker_unit = -1;
};

/// Orders one chare's units (§3.2.1): w, then invoking chare, then
/// recursion into the invoking units. The (time, id) order of the first
/// events is the total-order fallback and, without reordering, the whole
/// order; it is read as the first events' positions in the phase's
/// time-sorted event list (`local_of`).
class UnitOrder {
 public:
  UnitOrder(const std::vector<std::int32_t>& local_of,
            const std::vector<UnitInfo>& units, bool reorder)
      : local_of_(local_of), units_(units), reorder_(reorder) {}

  bool operator()(std::int32_t a, std::int32_t b) const {
    if (reorder_) {
      const int c = compare(a, b, /*depth=*/8);
      if (c != 0) return c < 0;
    }
    return local_of_[static_cast<std::size_t>(unit(a).first)] <
           local_of_[static_cast<std::size_t>(unit(b).first)];
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

  const std::vector<std::int32_t>& local_of_;
  const std::vector<UnitInfo>& units_;
  bool reorder_;
};

/// "reorder" pass (§3.2.1): fill ctx.w with the idealized-replay clock,
/// or zeros when reordering is disabled (physical-time stepping).
void reorder_pass(OrderContext& ctx) {
  const Options& opts = ctx.options();
  if (opts.step.reorder) {
    ctx.w = compute_w(ctx.trace(), ctx.phases,
                      ctx.units(opts.partition.sdag_inference),
                      ctx.collective_of(), opts.step,
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
  const BlockUnits& units = ctx.units(opts.partition.sdag_inference);
  const std::vector<std::int32_t>& coll_of = ctx.collective_of();

  out.w = std::move(ctx.w);
  if (out.w.empty())
    out.w.assign(static_cast<std::size_t>(trace.num_events()), 0);

  out.local_step.assign(static_cast<std::size_t>(trace.num_events()), 0);
  out.global_step.assign(static_cast<std::size_t>(trace.num_events()), 0);
  out.phase_offset.assign(static_cast<std::size_t>(phases.num_phases()), 0);
  out.phase_height.assign(static_cast<std::size_t>(phases.num_phases()), 0);

  // Per phase, (chare, event) in settle order; stitched globally after
  // offsets.
  std::vector<std::vector<std::pair<trace::ChareId, trace::EventId>>>
      settled(static_cast<std::size_t>(phases.num_phases()));
  // event -> its position in its phase's event list (time order).
  std::vector<std::int32_t> local_of(
      static_cast<std::size_t>(trace.num_events()), 0);
  std::vector<std::int32_t> conflicts(
      static_cast<std::size_t>(phases.num_phases()), 0);

  // Phases are mutually independent here: every vector indexed below is
  // written at per-phase or per-event (single owning phase) positions, so
  // the loop parallelizes without synchronization (§3.3). Inside a phase
  // everything is indexed by phase position.
  auto process_phase = [&](std::int32_t ph) {
    const auto& events = phases.events[static_cast<std::size_t>(ph)];
    const auto n = static_cast<std::int32_t>(events.size());
    auto at = [](auto& v, std::int32_t i) -> auto& {
      return v[static_cast<std::size_t>(i)];
    };
    for (std::int32_t i = 0; i < n; ++i) at(local_of, at(events, i)) = i;
    auto in_phase = [&](trace::EventId e) {
      return at(phases.phase_of_event, e) == ph;
    };

    // Units of this phase: a unit's index is the rank of its rep in the
    // sorted rep list (-1: not materialized in this phase).
    std::vector<trace::BlockId> reps;
    for (trace::EventId e : events) reps.push_back(at(units.unit_of_event, e));
    std::sort(reps.begin(), reps.end());
    reps.erase(std::unique(reps.begin(), reps.end()), reps.end());
    auto unit_index = [&](trace::EventId e) {
      const trace::BlockId rep = at(units.unit_of_event, e);
      auto it = std::lower_bound(reps.begin(), reps.end(), rep);
      return it != reps.end() && *it == rep
                 ? static_cast<std::int32_t>(it - reps.begin())
                 : -1;
    };
    const auto nu = static_cast<std::int32_t>(reps.size());

    // One sweep over the phase's rows: each event's unit, the unit sort
    // keys, and the message edges (in-phase send -> receive, collective
    // sends included).
    std::vector<UnitInfo> info(static_cast<std::size_t>(nu));
    std::vector<std::int32_t> unit_of(events.size());
    std::vector<std::pair<std::int32_t, std::int32_t>> edges;
    for (std::int32_t i = 0; i < n; ++i) {
      const trace::EventId e = at(events, i);
      const trace::Event ev = trace.event(e);
      const bool recv = ev.kind == trace::EventKind::Recv;
      UnitInfo& unit = at(info, at(unit_of, i) = unit_index(e));
      if (unit.first == trace::kNone) {
        unit.first = e;
        unit.chare = ev.chare;
        unit.w = at(out.w, e);
        if (opts.step.reorder && recv && ev.partner != trace::kNone) {
          unit.invoker_chare = trace.event(ev.partner).chare;
          unit.invoker_unit = unit_index(ev.partner);
        }
      }
      if (!recv) continue;
      unit.w = std::max(unit.w, at(out.w, e));
      if (ev.partner != trace::kNone && in_phase(ev.partner))
        edges.emplace_back(at(local_of, ev.partner), i);
      if (at(coll_of, e) < 0) continue;
      for (trace::EventId s : trace.collectives()[static_cast<std::size_t>(
                                  at(coll_of, e))].sends)
        if (in_phase(s)) edges.emplace_back(at(local_of, s), i);
    }

    // Chare sequences: units grouped by chare in first-appearance order,
    // each chare's run sorted by the unit order; events follow their
    // unit's rank, in time order within the unit.
    std::vector<std::int32_t> order(static_cast<std::size_t>(nu));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::int32_t a, std::int32_t b) {
                const UnitInfo& ua = at(info, a);
                const UnitInfo& ub = at(info, b);
                if (ua.chare != ub.chare) return ua.chare < ub.chare;
                return at(local_of, ua.first) < at(local_of, ub.first);
              });
    std::vector<std::int32_t> rank(static_cast<std::size_t>(nu));
    std::vector<std::int32_t> group(static_cast<std::size_t>(nu));
    std::int32_t groups = 0;
    for (std::size_t lo = 0, hi = 0; lo < order.size(); lo = hi, ++groups) {
      while (hi < order.size() &&
             at(info, order[hi]).chare == at(info, order[lo]).chare)
        ++hi;
      std::sort(order.begin() + static_cast<std::ptrdiff_t>(lo),
                order.begin() + static_cast<std::ptrdiff_t>(hi),
                UnitOrder(local_of, info, opts.step.reorder));
      for (std::size_t k = lo; k < hi; ++k) {
        at(rank, order[k]) = static_cast<std::int32_t>(k);
        at(group, order[k]) = groups;
      }
    }
    auto group_of = [&](std::int32_t i) { return at(group, at(unit_of, i)); };
    std::vector<std::int32_t> seq(events.size());
    std::iota(seq.begin(), seq.end(), 0);
    std::stable_sort(seq.begin(), seq.end(),
                     [&](std::int32_t a, std::int32_t b) {
                       return at(rank, at(unit_of, a)) <
                              at(rank, at(unit_of, b));
                     });
    std::vector<std::int32_t> seq_pred(events.size(), -1);
    for (std::int32_t k = 1; k < n; ++k) {
      if (group_of(at(seq, k - 1)) != group_of(at(seq, k))) continue;
      at(seq_pred, at(seq, k)) = at(seq, k - 1);
      edges.emplace_back(at(seq, k - 1), at(seq, k));
    }

    // Kahn over sequence + message edges: successors in CSR form
    // (succ[succ_begin[i] .. succ_begin[i + 1])) and indegrees.
    std::vector<std::int32_t> succ_begin(events.size() + 1, 0);
    std::vector<std::int32_t> indeg(events.size(), 0);
    for (auto [from, to] : edges) {
      ++at(succ_begin, from + 1);
      ++at(indeg, to);
    }
    std::partial_sum(succ_begin.begin(), succ_begin.end(),
                     succ_begin.begin());
    std::vector<std::int32_t> succ(edges.size());
    {
      std::vector<std::int32_t> cur(succ_begin);
      for (auto [from, to] : edges) at(succ, at(cur, from)++) = to;
    }

    // The one step rule (§3.2.2): one past the step of the event settled
    // last on the chare in this phase and of every in-phase send the
    // event receives from (`pred_max`, the largest step a settled
    // predecessor pushed). A chare's in-phase sequence is its settle
    // order, which is its unit order whenever Kahn never stalls.
    std::vector<std::int32_t> step(events.size(), -1);  // -1 = unsettled
    std::vector<std::int32_t> pred_max(events.size(), -1);
    std::vector<std::int32_t> last_step(static_cast<std::size_t>(groups), -1);
    auto& order_out = at(settled, ph);
    order_out.reserve(events.size());
    std::vector<std::int32_t> ready;
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
      const std::int32_t p = at(seq_pred, i);
      return at(step, i) < 0 && at(indeg, i) == 1 && p >= 0 &&
             at(step, p) < 0 &&
             trace.event(at(events, p)).block !=
                 trace.event(at(events, i)).block;
    };
    auto settle = [&](std::int32_t i) {
      std::int32_t& last = at(last_step, group_of(i));
      last = std::max(last, at(pred_max, i)) + 1;
      at(step, i) = last;
      order_out.emplace_back(at(info, at(unit_of, i)).chare, at(events, i));
      for (std::int32_t j = at(succ_begin, i); j < at(succ_begin, i + 1);
           ++j) {
        const std::int32_t k = at(succ, j);
        at(pred_max, k) = std::max(at(pred_max, k), last);
        if (--at(indeg, k) == 0) {
          if (at(step, k) < 0) ready.push_back(k);
        } else if (stalled && is_candidate(k)) {
          candidates.push(k);
        }
      }
    };

    for (std::int32_t i = 0; i < n; ++i)
      if (at(indeg, i) == 0) ready.push_back(i);
    std::size_t head = 0;
    for (std::int32_t done = 0; done < n; ++done) {
      if (head < ready.size()) {
        settle(ready[head++]);
        continue;
      }
      // The unit order contradicts the messages (a dependency cycle):
      // settle the earliest event whose happened-before predecessors are
      // all settled. One always exists, because happened-before is
      // acyclic.
      if (!stalled) {
        stalled = true;
        for (std::int32_t i = 0; i < n; ++i)
          if (is_candidate(i)) candidates.push(i);
      }
      while (!candidates.empty() && at(step, candidates.top()) >= 0)
        candidates.pop();
      LS_CHECK_MSG(!candidates.empty(),
                   "stepping: cyclic happened-before inside a phase");
      ++at(conflicts, ph);
      settle(candidates.top());
    }

    std::int32_t height = 0;
    for (std::int32_t i = 0; i < n; ++i) {
      at(out.local_step, at(events, i)) = at(step, i);
      height = std::max(height, at(step, i));
    }
    at(out.phase_height, ph) = height;
  };

  const int threads = opts.effective_threads();
  span.attr("threads", threads);
  obs::Progress progress("order/stepping", phases.num_phases());
  util::parallel_for(threads, phases.num_phases(), [&](std::int64_t ph) {
    process_phase(static_cast<std::int32_t>(ph));
    obs::Progress::tick();
  });
  for (std::int32_t c : conflicts) out.order_conflicts += c;

  // Phase offsets along the phase DAG.
  for (graph::NodeId p : graph::topological_order(phases.dag)) {
    std::int32_t offset = 0;
    for (graph::NodeId pred : phases.dag.predecessors(p)) {
      offset = std::max(
          offset, out.phase_offset[static_cast<std::size_t>(pred)] +
                      out.phase_height[static_cast<std::size_t>(pred)] + 1);
    }
    out.phase_offset[static_cast<std::size_t>(p)] = offset;
  }

  for (trace::EventId e = 0; e < trace.num_events(); ++e) {
    std::int32_t ph = phases.phase_of_event[static_cast<std::size_t>(e)];
    out.global_step[static_cast<std::size_t>(e)] =
        out.phase_offset[static_cast<std::size_t>(ph)] +
        out.local_step[static_cast<std::size_t>(e)];
    out.max_step = std::max(out.max_step,
                            out.global_step[static_cast<std::size_t>(e)]);
  }

  // Global per-chare sequences: phases in offset order.
  out.chare_sequence.assign(static_cast<std::size_t>(trace.num_chares()),
                            {});
  {
    std::vector<std::int32_t> phase_order(
        static_cast<std::size_t>(phases.num_phases()));
    for (std::size_t i = 0; i < phase_order.size(); ++i)
      phase_order[i] = static_cast<std::int32_t>(i);
    std::sort(phase_order.begin(), phase_order.end(),
              [&](std::int32_t a, std::int32_t b) {
                if (out.phase_offset[static_cast<std::size_t>(a)] !=
                    out.phase_offset[static_cast<std::size_t>(b)])
                  return out.phase_offset[static_cast<std::size_t>(a)] <
                         out.phase_offset[static_cast<std::size_t>(b)];
                return a < b;
              });
    for (std::int32_t ph : phase_order)
      for (auto [chare, e] : settled[static_cast<std::size_t>(ph)])
        out.chare_sequence[static_cast<std::size_t>(chare)].push_back(e);
  }
  out.pos_in_chare.assign(static_cast<std::size_t>(trace.num_events()), 0);
  for (const auto& seq : out.chare_sequence) {
    for (std::size_t i = 0; i < seq.size(); ++i)
      out.pos_in_chare[static_cast<std::size_t>(seq[i])] =
          static_cast<std::int32_t>(i);
  }

  out.phases = std::move(phases);
  span.attr("max_step", out.max_step);
  span.attr("order_conflicts", out.order_conflicts);
  OBS_COUNTER_ADD("order/stepping/order_conflicts", out.order_conflicts);
}

}  // namespace

void run_stepping_pipeline(OrderContext& ctx,
                           std::vector<PassRecord>* records) {
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
