#include "metrics/windows.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "order/stats.hpp"
#include "util/csr.hpp"

namespace logstruct::metrics {

void WindowSet::index_members(const trace::Trace& trace,
                              bool flag_degraded_chares) {
  const auto num_windows = windows_.size();
  const auto num_events = static_cast<std::size_t>(trace.num_events());

  // Events per window in event-id order (the fixed reduction order the
  // efficiency kernels rely on).
  util::csr_scatter(
      num_windows,
      [&](auto emit) {
        for (std::size_t e = 0; e < num_events; ++e)
          emit(window_of_event_[e], e);
      },
      event_begin_, events_);

  // A time bin inherits the quarantine flag of any degraded chare whose
  // event it contains (phase windows carry the flag from PhaseResult).
  if (flag_degraded_chares && trace.num_degraded_chares() > 0) {
    for (std::size_t e = 0; e < num_events; ++e) {
      if (trace.is_degraded_chare(
              trace.event(static_cast<trace::EventId>(e)).chare))
        windows_[static_cast<std::size_t>(window_of_event_[e])].degraded =
            true;
    }
  }
  degraded_windows_ = 0;
  for (const Window& w : windows_)
    if (w.degraded) ++degraded_windows_;

  OBS_COUNTER_ADD("metrics/windows/built",
                  static_cast<std::int64_t>(num_windows));
}

WindowSet WindowSet::time_bins(const trace::Trace& trace,
                               std::int32_t bins) {
  OBS_SPAN_ANON("metrics/windows/time_bins");
  WindowSet set;
  set.kind_ = WindowKind::TimeBin;
  bins = std::max<std::int32_t>(1, bins);
  const trace::TimeNs end = std::max<trace::TimeNs>(trace.end_time(), 1);
  const trace::TimeNs width =
      std::max<trace::TimeNs>(1, (end + bins - 1) / bins);

  set.bin_width_ = width;
  set.windows_.resize(static_cast<std::size_t>(bins));
  for (std::int32_t w = 0; w < bins; ++w) {
    Window& win = set.windows_[static_cast<std::size_t>(w)];
    win.begin = static_cast<trace::TimeNs>(w) * width;
    win.end = w + 1 == bins ? end : win.begin + width;
  }

  set.window_of_event_.resize(static_cast<std::size_t>(trace.num_events()));
  for (trace::EventId e = 0; e < trace.num_events(); ++e) {
    auto w = static_cast<std::int32_t>(trace.event_time(e) / width);
    set.window_of_event_[static_cast<std::size_t>(e)] =
        std::min(w, bins - 1);
  }
  set.index_members(trace, /*flag_degraded_chares=*/true);
  return set;
}

WindowSet WindowSet::time_bins_of_width(const trace::Trace& trace,
                                        trace::TimeNs width_ns) {
  width_ns = std::max<trace::TimeNs>(1, width_ns);
  const trace::TimeNs end = std::max<trace::TimeNs>(trace.end_time(), 1);
  const auto bins =
      static_cast<std::int32_t>((end + width_ns - 1) / width_ns);
  return time_bins(trace, bins);
}

WindowSet WindowSet::phases(const trace::Trace& trace,
                            const order::PhaseResult& phases) {
  OBS_SPAN_ANON("metrics/windows/phases");
  WindowSet set;
  set.kind_ = WindowKind::Phase;

  const std::vector<order::PhaseExtent> extents =
      order::phase_extents(trace, phases);
  set.windows_.resize(static_cast<std::size_t>(phases.num_phases()));
  for (std::int32_t p = 0; p < phases.num_phases(); ++p) {
    Window& win = set.windows_[static_cast<std::size_t>(p)];
    win.begin = extents[static_cast<std::size_t>(p)].begin;
    win.end = extents[static_cast<std::size_t>(p)].end;
    win.phase = p;
    win.degraded = phases.is_degraded(p);
  }

  set.window_of_event_.assign(phases.phase_of_event.begin(),
                              phases.phase_of_event.end());
  set.index_members(trace, /*flag_degraded_chares=*/false);
  return set;
}

}  // namespace logstruct::metrics
