#include "metrics/critical_path.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "trace/depview.hpp"
#include "trace/subblock.hpp"

namespace logstruct::metrics {

CriticalPath critical_path(const trace::Trace& trace,
                           const order::LogicalStructure& ls,
                           int /*threads*/) {
  OBS_SPAN_ANON("metrics/critical_path");
  CriticalPath out;
  out.degraded_phases = ls.phases.degraded_phases;
  const auto n = static_cast<std::size_t>(trace.num_events());
  if (n == 0) return out;

  // Plain event-gap durations: event e costs the span from the previous
  // event in its block (or the block begin) to e. Unlike the §4 sub-block
  // decomposition, the leftover tail of a block is NOT reassigned to the
  // trigger — that would double-count wall time when a path passes
  // through the trigger and a later event of the same block. With gap
  // durations every interval a path sums is disjoint, so coverage <= 1.
  //
  // The trailing compute after a block's last event is path work too (it
  // is what a receive-only block DOES) — but it happens AFTER the event,
  // so it only counts when the path continues along the chare (or ends
  // here), never when it leaves through the event's outgoing message (the
  // sender keeps computing while the message flies).
  const trace::SubblockFrame& frame = trace.subblock_frame();

  // Every event's time, chare and block, from one sequential scan.
  std::vector<trace::TimeNs> slack(n);
  std::vector<trace::ChareId> chare(n);
  std::vector<trace::BlockId> block(n);
  trace.events().for_each_chunk(
      [&](const trace::Event* ev, std::size_t k, std::size_t base) {
        for (std::size_t i = 0; i < k; ++i) {
          slack[base + i] = ev[i].time;
          chare[base + i] = ev[i].chare;
          block[base + i] = ev[i].block;
        }
      });

  // Longest distance ending at each event. Process in physical-time order
  // (a valid topological order of both edge families: matching sends
  // precede their receives, and the per-chare order within a phase only
  // moves receives earlier — so use the happened-before edges in their
  // PHYSICAL direction: prior event in the chare's physical order, and
  // the matching send).
  //
  // dist_at: longest chain arriving at the event's own timestamp (used by
  // outgoing message edges). dist_at + trailing tail is the full distance
  // (used by chare-order continuation and as the final path length); it
  // is kept only for each chare's last event and for the best event.
  // slack[e] holds e's time until the walk reaches e and dist_at - time
  // from then on, so a sender's chain reaches e at slack[s] + time =
  // dist_at[s] + latency with one array instead of two. A sender the walk
  // has not reached yet (a time tie broken by id, or a skewed clock)
  // contributes its latency alone, its dist_at still being 0.
  std::vector<bool> reached(n, false);
  std::vector<trace::EventId> pred(n, trace::kNone);
  std::vector<trace::EventId> last_on_chare(
      static_cast<std::size_t>(trace.num_chares()), trace::kNone);
  std::vector<trace::TimeNs> full_on_chare(
      static_cast<std::size_t>(trace.num_chares()), 0);

  // All dependency edges come from the frozen table's reverse view:
  // matches and fan-out copies plus every send of a collective, so the
  // path does not break at reductions.
  const trace::IncomingDeps& deps = trace.incoming_deps();

  trace::EventId best = trace::kNone;
  trace::TimeNs best_full = 0;
  for (const trace::EventId e : trace.by_time()) {
    const auto ez = static_cast<std::size_t>(e);
    trace::TimeNs incoming = 0;
    trace::EventId from = trace::kNone;

    const auto c = static_cast<std::size_t>(chare[ez]);
    if (last_on_chare[c] != trace::kNone) {
      incoming = full_on_chare[c];
      from = last_on_chare[c];
    }
    const trace::TimeNs time = slack[ez];
    for (trace::EventId s : deps.senders(e)) {
      const auto sz = static_cast<std::size_t>(s);
      const trace::TimeNs via =
          reached[sz] ? slack[sz] + time : time - slack[sz];
      if (via > incoming) {
        incoming = via;
        from = s;
      }
    }
    const trace::TimeNs at = incoming + frame.gap(e, block[ez]);
    const trace::TimeNs full = at + frame.tail_after(e, block[ez]);
    slack[ez] = at - time;
    reached[ez] = true;
    pred[ez] = from;
    last_on_chare[c] = e;
    full_on_chare[c] = full;
    if (best == trace::kNone || full > best_full) {
      best = e;
      best_full = full;
    }
  }

  for (trace::EventId e = best; e != trace::kNone;
       e = pred[static_cast<std::size_t>(e)]) {
    out.events.push_back(e);
  }
  std::reverse(out.events.begin(), out.events.end());
  out.length_ns = best_full;
  out.coverage = static_cast<double>(out.length_ns) /
                 static_cast<double>(
                     std::max<trace::TimeNs>(trace.end_time(), 1));

  out.chare_share.assign(static_cast<std::size_t>(trace.num_chares()), 0);
  for (std::size_t i = 0; i < out.events.size(); ++i) {
    const trace::EventId e = out.events[i];
    const auto ez = static_cast<std::size_t>(e);
    trace::TimeNs share = frame.gap(e, block[ez]);
    // The tail counted toward the path only where the path kept following
    // the chare (or ended).
    bool left_by_message = false;
    if (i + 1 < out.events.size()) {
      const trace::EventId next = out.events[i + 1];
      auto senders = deps.senders(next);
      left_by_message =
          std::find(senders.begin(), senders.end(), e) != senders.end() &&
          trace.event(next).kind == trace::EventKind::Recv;
    }
    if (!left_by_message) share += frame.tail_after(e, block[ez]);
    out.chare_share[static_cast<std::size_t>(chare[ez])] += share;
  }
  return out;
}

}  // namespace logstruct::metrics
