#include "metrics/critical_path.hpp"

#include <algorithm>

#include "metrics/subblock.hpp"
#include "obs/obs.hpp"
#include "trace/depview.hpp"

namespace logstruct::metrics {

CriticalPath critical_path(const trace::Trace& trace,
                           const order::LogicalStructure& ls, int threads) {
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
  const BlockGaps gaps = block_gaps(trace, threads);
  const std::vector<trace::TimeNs>& dur = gaps.gap;
  // The tail after e: its block's trailing span if e is the block's last
  // event, else 0.
  auto tail = [&gaps](trace::EventId e, trace::BlockId block) {
    if (block == trace::kNone) return trace::TimeNs{0};
    const BlockGaps::Tail& t = gaps.tail[static_cast<std::size_t>(block)];
    return t.last == e ? t.span : 0;
  };

  // Longest distance ending at each event. Process in physical-time order
  // (a valid topological order of both edge families: matching sends
  // precede their receives, and the per-chare order within a phase only
  // moves receives earlier — so use the happened-before edges in their
  // PHYSICAL direction: prior event in the chare's physical order, and
  // the matching send).
  const std::vector<trace::EventId> order = trace.events_by_time();

  // dist_at: longest chain arriving at the event's own timestamp (used by
  // outgoing message edges). dist_at + trailing tail is the full distance
  // (used by chare-order continuation and as the final path length); it
  // is kept only for each chare's last event and for the best event.
  std::vector<trace::TimeNs> dist_at(n, 0);
  std::vector<trace::EventId> pred(n, trace::kNone);
  std::vector<trace::EventId> last_on_chare(
      static_cast<std::size_t>(trace.num_chares()), trace::kNone);
  std::vector<trace::TimeNs> full_on_chare(
      static_cast<std::size_t>(trace.num_chares()), 0);

  // All dependency edges come from the frozen table's reverse view:
  // matches and fan-out copies (what ev.partner used to give) plus every
  // send of a collective, so the path no longer breaks at reductions.
  trace::IncomingDeps deps(trace);

  trace::EventId best = trace::kNone;
  trace::TimeNs best_full = 0;
  for (trace::EventId e : order) {
    const trace::Event& ev = trace.event(e);
    trace::TimeNs incoming = 0;
    trace::EventId from = trace::kNone;

    const auto c = static_cast<std::size_t>(ev.chare);
    if (last_on_chare[c] != trace::kNone) {
      incoming = full_on_chare[c];
      from = last_on_chare[c];
    }
    for (trace::EventId s : deps.senders(e)) {
      trace::TimeNs latency = ev.time - trace.event(s).time;
      trace::TimeNs via = dist_at[static_cast<std::size_t>(s)] + latency;
      if (via > incoming) {
        incoming = via;
        from = s;
      }
    }
    const trace::TimeNs at = incoming + dur[static_cast<std::size_t>(e)];
    const trace::TimeNs full = at + tail(e, ev.block);
    dist_at[static_cast<std::size_t>(e)] = at;
    pred[static_cast<std::size_t>(e)] = from;
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
    trace::EventId e = out.events[i];
    trace::TimeNs share = dur[static_cast<std::size_t>(e)];
    // The tail counted toward the path only where the path kept following
    // the chare (or ended).
    bool left_by_message = false;
    if (i + 1 < out.events.size() &&
        trace.event(out.events[i + 1]).kind == trace::EventKind::Recv) {
      auto senders = deps.senders(out.events[i + 1]);
      left_by_message =
          std::find(senders.begin(), senders.end(), e) != senders.end();
    }
    const trace::Event ev = trace.event(e);
    if (!left_by_message) share += tail(e, ev.block);
    out.chare_share[static_cast<std::size_t>(ev.chare)] += share;
  }
  return out;
}

}  // namespace logstruct::metrics
