#include "metrics/efficiency.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/obs.hpp"
#include "obs/progress.hpp"
#include "trace/depview.hpp"
#include "trace/subblock.hpp"
#include "util/flags.hpp"
#include "util/thread_pool.hpp"

namespace logstruct::metrics {

namespace {

double clamp01(double v) { return std::min(1.0, std::max(0.0, v)); }

/// Every ratio's shape: map every window to a ratio, then summarize over
/// non-empty windows in fixed (window-id) order. The per-window writes
/// are index-owned, so the fan-out is race-free and bit-identical for
/// any thread count.
template <typename Fn>
WindowRatio window_ratio(const WindowSet& windows, const WindowLoads& loads,
                         int threads, Fn&& ratio) {
  const std::int64_t n = windows.size();
  WindowRatio out;
  out.per_window.assign(static_cast<std::size_t>(n), 0.0);
  util::parallel_for(threads, n, [&](std::int64_t w) {
    const auto i = static_cast<std::size_t>(w);
    if (loads.events[i] == 0) return;  // empty window stays 0
    const trace::TimeNs span = windows.window(
        static_cast<std::int32_t>(w)).span();
    out.per_window[i] = span == 0 ? 1.0 : clamp01(ratio(i, span));
  });
  double sum = 0;
  std::int64_t counted = 0;
  EffSummary& summary = out.summary;
  for (std::int64_t w = 0; w < n; ++w) {
    const auto i = static_cast<std::size_t>(w);
    if (loads.events[i] == 0) continue;
    const double v = out.per_window[i];
    sum += v;
    ++counted;
    if (summary.min_window < 0 || v < summary.min) {
      summary.min = v;
      summary.min_window = static_cast<std::int32_t>(w);
    }
  }
  summary.mean = counted ? sum / static_cast<double>(counted) : 0.0;
  return out;
}

double busy_avg(const WindowLoads& loads, std::size_t w) {
  const std::int32_t procs = loads.procs_active[w];
  return procs ? static_cast<double>(loads.busy_sum[w]) /
                     static_cast<double>(procs)
               : 0.0;
}

}  // namespace

WindowLoads compute_window_loads(const trace::Trace& trace,
                                 const WindowSet& windows, int threads) {
  OBS_SPAN_ANON("metrics/window_loads");
  const auto num_windows = static_cast<std::size_t>(windows.size());
  const auto num_procs = static_cast<std::size_t>(trace.num_procs());
  const auto num_events = static_cast<std::size_t>(trace.num_events());

  WindowLoads loads;
  loads.num_procs = trace.num_procs();
  loads.busy.assign(num_windows * num_procs, 0);
  loads.procs_active.assign(num_windows, 0);
  loads.events.assign(num_windows, 0);
  loads.messages.assign(num_windows, 0);
  loads.transfer_wait.assign(num_windows, 0);
  loads.busy_sum.assign(num_windows, 0);
  loads.busy_max.assign(num_windows, 0);
  loads.ideal_span.assign(num_windows, 0);

  const std::vector<trace::TimeNs>& dur = trace.subblock_frame().duration;

  // Which processors each window's events ran on, flattened like busy.
  std::vector<std::uint8_t> touched(num_windows * num_procs, 0);

  // Every event's time, from one sequential event scan. An event without
  // a block is in no processor's list below, so the scan marks its
  // processor (its sub-block duration is 0, so it adds no busy time).
  std::vector<trace::TimeNs> time(num_events);
  trace.events().for_each_chunk(
      [&](const trace::Event* ev, std::size_t n, std::size_t base) {
        for (std::size_t i = 0; i < n; ++i) {
          time[base + i] = ev[i].time;
          const auto p = static_cast<std::size_t>(ev[i].proc);
          if (ev[i].block != trace::kNone || p >= num_procs) continue;
          const auto w = static_cast<std::size_t>(
              windows.window_of(static_cast<trace::EventId>(base + i)));
          touched[w * num_procs + p] = 1;
        }
      });

  // Per-window predecessor in per-processor execution order (blocks on
  // a proc run serially in begin-time order, events within a block in
  // physical order), restricted to in-window events: a phase's events
  // interleave with other phases on a proc, so the global proc chain
  // cannot be reused directly. The zero-latency replay keeps this
  // serialization — the POP ideal network removes transfer time, not
  // processors — which also guarantees ideal_span >= busy_max, so
  // serialization <= 1 and comm = serialization x transfer holds
  // exactly. One walk of every proc's list builds all the chains: each
  // window keeps its last event, stamped with the proc that set it. The
  // same walk sums each window's per-proc busy time (integer sums, so
  // the order does not matter).
  std::vector<trace::EventId> prev_in_window(num_events, trace::kNone);
  {
    std::vector<trace::EventId> last(num_windows, trace::kNone);
    std::vector<trace::ProcId> last_proc(num_windows, -1);
    for (trace::ProcId p = 0; p < trace.num_procs(); ++p)
      for (trace::BlockId b : trace.blocks_of_proc(p))
        for (trace::EventId e : trace.events_of_block(b)) {
          const auto w = static_cast<std::size_t>(windows.window_of(e));
          if (last_proc[w] == p)
            prev_in_window[static_cast<std::size_t>(e)] = last[w];
          last[w] = e;
          last_proc[w] = p;
          const std::size_t at = w * num_procs + static_cast<std::size_t>(p);
          loads.busy[at] += dur[static_cast<std::size_t>(e)];
          touched[at] = 1;
        }
  }

  const trace::IncomingDeps& deps = trace.incoming_deps();

  // Messages and transfer wait: one pass over the dependency rows, each
  // counted and summed into the window of its receive.
  const auto dep_sends = trace.dep_sends();
  const auto dep_recvs = trace.dep_recvs();
  for (std::size_t r = 0; r < dep_sends.size(); ++r) {
    const auto recv = static_cast<std::size_t>(dep_recvs[r]);
    const trace::TimeNs latency =
        time[recv] - time[static_cast<std::size_t>(dep_sends[r])];
    const auto w = static_cast<std::size_t>(
        windows.window_of(static_cast<trace::EventId>(recv)));
    ++loads.messages[w];
    loads.transfer_wait[w] += std::max<trace::TimeNs>(0, latency);
  }

  // Zero-latency replay scratch, shared across windows: every window
  // touches only its own events (windows partition the event set), so
  // the fan-out below stays index-owned. The replay writes an event's
  // finish time before it reads it, so finish reuses the time buffer.
  std::vector<trace::TimeNs> finish = std::move(time);
  std::vector<std::uint8_t> state(num_events, 0);  // 0 new, 1 open, 2 done

  obs::Progress progress("metrics/window_loads",
                         static_cast<std::int64_t>(num_windows));
  util::parallel_for(
      threads, static_cast<std::int64_t>(num_windows),
      [&](std::int64_t wi) {
        const auto w = static_cast<std::int32_t>(wi);
        const auto wz = static_cast<std::size_t>(wi);
        const auto events = windows.events_of(w);
        loads.events[wz] = static_cast<std::int32_t>(events.size());

        const trace::TimeNs* busy = loads.busy.data() + wz * num_procs;
        const std::uint8_t* on = touched.data() + wz * num_procs;
        for (std::size_t p = 0; p < num_procs; ++p) {
          if (!on[p]) continue;
          ++loads.procs_active[wz];
          loads.busy_sum[wz] += busy[p];
          loads.busy_max[wz] = std::max(loads.busy_max[wz], busy[p]);
        }

        // Zero-latency replay: longest chain of sub-block compute over
        // per-proc serialization order and in-window dependencies.
        // Iterative DFS with memoized finish times; a cycle (impossible
        // in a valid trace, tolerated defensively) contributes 0.
        auto for_each_pred = [&](trace::EventId v, auto&& fn) {
          const trace::EventId prev =
              prev_in_window[static_cast<std::size_t>(v)];
          if (prev != trace::kNone) fn(prev);
          for (trace::EventId s : deps.senders(v))
            if (windows.window_of(s) == w) fn(s);
        };
        std::vector<trace::EventId> stack;
        for (trace::EventId e : events) {
          if (state[static_cast<std::size_t>(e)] == 2) continue;
          stack.push_back(e);
          while (!stack.empty()) {
            const trace::EventId v = stack.back();
            const auto vz = static_cast<std::size_t>(v);
            if (state[vz] == 2) {
              stack.pop_back();
              continue;
            }
            if (state[vz] == 0) {
              state[vz] = 1;
              for_each_pred(v, [&](trace::EventId pred) {
                if (state[static_cast<std::size_t>(pred)] == 0)
                  stack.push_back(pred);
              });
              continue;
            }
            trace::TimeNs chain = 0;
            for_each_pred(v, [&](trace::EventId pred) {
              if (state[static_cast<std::size_t>(pred)] == 2)
                chain = std::max(chain,
                                 finish[static_cast<std::size_t>(pred)]);
            });
            finish[vz] = chain + dur[vz];
            state[vz] = 2;
            stack.pop_back();
          }
        }
        for (trace::EventId e : events)
          loads.ideal_span[wz] = std::max(
              loads.ideal_span[wz], finish[static_cast<std::size_t>(e)]);
        obs::Progress::tick();
      });

  OBS_COUNTER_ADD("metrics/efficiency/windows",
                  static_cast<std::int64_t>(num_windows));
  return loads;
}

EfficiencySuite efficiency_suite(const trace::Trace& trace,
                                 const WindowSet& windows, int threads) {
  OBS_SPAN(sp, "metrics/efficiency_suite");
  EfficiencySuite suite;
  suite.kind = windows.kind();
  suite.bin_width_ns = windows.bin_width();
  suite.windows.assign(windows.windows().begin(), windows.windows().end());
  suite.degraded_windows = windows.degraded_windows();
  suite.loads = compute_window_loads(trace, windows, threads);
  const WindowLoads& loads = suite.loads;
  auto ratio = [&](auto&& fn) {
    return window_ratio(windows, loads, threads, fn);
  };
  suite.parallel = ratio([&](std::size_t w, trace::TimeNs span) {
    return busy_avg(loads, w) / static_cast<double>(span);
  });
  suite.balance = ratio([&](std::size_t w, trace::TimeNs) {
    return loads.busy_max[w] > 0
               ? busy_avg(loads, w) / static_cast<double>(loads.busy_max[w])
               : 1.0;
  });
  suite.communication = ratio([&](std::size_t w, trace::TimeNs span) {
    return static_cast<double>(loads.busy_max[w]) / static_cast<double>(span);
  });
  suite.serialization = ratio([&](std::size_t w, trace::TimeNs) {
    return loads.ideal_span[w] > 0
               ? static_cast<double>(loads.busy_max[w]) /
                     static_cast<double>(loads.ideal_span[w])
               : 1.0;
  });
  suite.transfer = ratio([&](std::size_t w, trace::TimeNs span) {
    return static_cast<double>(loads.ideal_span[w]) /
           static_cast<double>(span);
  });
  sp.attr("windows", windows.size());
  sp.attr("degraded_windows", suite.degraded_windows);
  return suite;
}

namespace {

void write_summary(obs::json::Writer& w, const char* name,
                   const EffSummary& s) {
  w.key(name);
  w.begin_object();
  w.key("min");
  w.value(s.min);
  w.key("mean");
  w.value(s.mean);
  w.key("min_window");
  w.value(s.min_window);
  w.end_object();
}

}  // namespace

std::string efficiency_report_json(const trace::Trace& trace,
                                   const std::string& program,
                                   std::span<const EfficiencySuite> suites) {
  obs::json::Writer w;
  w.begin_object();
  w.key("schema");
  w.value("logstruct-effmetrics/v1");
  w.key("program");
  w.value(program);
  w.key("trace");
  w.begin_object();
  w.key("events");
  w.value(trace.num_events());
  w.key("procs");
  w.value(trace.num_procs());
  w.key("end_ns");
  w.value(static_cast<std::int64_t>(trace.end_time()));
  w.key("degraded_chares");
  w.value(trace.num_degraded_chares());
  w.end_object();
  w.key("suites");
  w.begin_array();
  for (const EfficiencySuite& suite : suites) {
    w.begin_object();
    w.key("mode");
    w.value(suite.kind == WindowKind::TimeBin ? "time_bins" : "phases");
    if (suite.kind == WindowKind::TimeBin) {
      w.key("bin_width_ns");
      w.value(static_cast<std::int64_t>(suite.bin_width_ns));
    }
    w.key("num_windows");
    w.value(suite.num_windows());
    w.key("degraded_windows");
    w.value(suite.degraded_windows);
    w.key("summary");
    w.begin_object();
    write_summary(w, "parallel", suite.parallel.summary);
    write_summary(w, "load_balance", suite.balance.summary);
    write_summary(w, "communication", suite.communication.summary);
    write_summary(w, "serialization", suite.serialization.summary);
    write_summary(w, "transfer", suite.transfer.summary);
    w.end_object();
    w.key("windows");
    w.begin_array();
    for (std::int32_t i = 0; i < suite.num_windows(); ++i) {
      const auto iz = static_cast<std::size_t>(i);
      const Window& win = suite.windows[iz];
      w.begin_object();
      w.key("index");
      w.value(i);
      w.key("begin_ns");
      w.value(static_cast<std::int64_t>(win.begin));
      w.key("end_ns");
      w.value(static_cast<std::int64_t>(win.end));
      if (win.phase >= 0) {
        w.key("phase");
        w.value(win.phase);
      }
      w.key("degraded");
      w.value(win.degraded);
      w.key("events");
      w.value(suite.loads.events[iz]);
      w.key("procs");
      w.value(suite.loads.procs_active[iz]);
      w.key("messages");
      w.value(suite.loads.messages[iz]);
      w.key("busy_sum_ns");
      w.value(static_cast<std::int64_t>(suite.loads.busy_sum[iz]));
      w.key("busy_max_ns");
      w.value(static_cast<std::int64_t>(suite.loads.busy_max[iz]));
      w.key("ideal_span_ns");
      w.value(static_cast<std::int64_t>(suite.loads.ideal_span[iz]));
      w.key("transfer_wait_ns");
      w.value(static_cast<std::int64_t>(suite.loads.transfer_wait[iz]));
      w.key("parallel");
      w.value(suite.parallel.per_window[iz]);
      w.key("load_balance");
      w.value(suite.balance.per_window[iz]);
      w.key("communication");
      w.value(suite.communication.per_window[iz]);
      w.key("serialization");
      w.value(suite.serialization.per_window[iz]);
      w.key("transfer");
      w.value(suite.transfer.per_window[iz]);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return std::move(w).str();
}

bool write_efficiency_report(const util::Flags& flags,
                             const trace::Trace& trace,
                             const order::LogicalStructure& ls,
                             const std::string& program) {
  if (!flags.defined("eff-json")) return true;
  const std::string& path = flags.get_string("eff-json");
  if (path.empty()) return true;

  const WindowSet phase_windows = WindowSet::phases(trace, ls.phases);
  std::int64_t bins = flags.get_int("eff-bins");
  if (bins <= 0) bins = std::max<std::int64_t>(1, phase_windows.size());
  const WindowSet bin_windows =
      WindowSet::time_bins(trace, static_cast<std::int32_t>(bins));

  const EfficiencySuite suites[] = {
      efficiency_suite(trace, bin_windows),
      efficiency_suite(trace, phase_windows),
  };
  const std::string doc = efficiency_report_json(trace, program, suites);

  std::ofstream out(path, std::ios::binary);
  if (out) out << doc << '\n';
  if (!out || !out.good()) {
    obs::log(obs::Level::Error, "metrics",
             "cannot write efficiency report", {{"path", path}});
    return false;
  }
  obs::log(obs::Level::Info, "metrics", "wrote efficiency report",
           {{"path", path}});
  return true;
}

}  // namespace logstruct::metrics
