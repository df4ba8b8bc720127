#include "obs/export_chrome.hpp"

#include <algorithm>
#include <cstdint>

#include "obs/json.hpp"

namespace logstruct::obs {

namespace {

constexpr std::int64_t kPid = 1;  ///< single-process tool; fixed pid

double to_us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

void event_header(json::Writer& w, std::string_view name,
                  std::string_view ph, double ts_us, std::int64_t tid) {
  w.begin_object();
  w.key("name");
  w.value(name);
  w.key("ph");
  w.value(ph);
  w.key("ts");
  w.value(ts_us);
  w.key("pid");
  w.value(kPid);
  w.key("tid");
  w.value(tid);
}

void metadata_event(json::Writer& w, std::string_view kind,
                    std::int64_t tid, std::string_view name) {
  event_header(w, kind, "M", 0.0, tid);
  w.key("args");
  w.begin_object();
  w.key("name");
  w.value(name);
  w.end_object();
  w.end_object();
}

void counter_event(json::Writer& w, std::string_view name, double ts_us,
                   std::int64_t value) {
  event_header(w, name, "C", ts_us, 0);
  w.key("args");
  w.begin_object();
  w.key("value");
  w.value(value);
  w.end_object();
  w.end_object();
}

}  // namespace

std::string chrome_trace_json(const std::vector<Span>& spans,
                              const RegistrySnapshot& metrics,
                              std::string_view process_name) {
  std::int32_t max_thread = -1;
  std::int64_t last_ns = 0;
  for (const Span& s : spans) {
    max_thread = std::max(max_thread, s.thread);
    last_ns = std::max(last_ns, std::max(s.begin_ns, s.end_ns));
  }

  json::Writer w;
  w.begin_object();
  w.key("displayTimeUnit");
  w.value("ms");
  w.key("traceEvents");
  w.begin_array();

  metadata_event(w, "process_name", 0, process_name);
  for (std::int32_t t = 0; t <= max_thread; ++t) {
    metadata_event(w, "thread_name", t,
                   "pipeline-thread-" + std::to_string(t));
  }

  for (const Span& s : spans) {
    if (s.open) {
      // Unclosed span (crash, or snapshot taken mid-stage): a lone
      // begin event keeps the trace loadable.
      event_header(w, s.name, "B", to_us(s.begin_ns), s.thread);
    } else {
      event_header(w, s.name, "X", to_us(s.begin_ns), s.thread);
      w.key("dur");
      w.value(to_us(s.end_ns - s.begin_ns));
    }
    w.key("args");
    w.begin_object();
    if (!s.open) {
      w.key("alloc_bytes");
      w.value(s.alloc_bytes);
      w.key("alloc_count");
      w.value(s.alloc_count);
      w.key("rss_peak_kb");
      w.value(s.rss_peak_kb);
    }
    for (const SpanAttr& a : s.attrs) {
      w.key(a.key);
      w.value(a.value);
    }
    w.end_object();
    w.end_object();
  }

  const double close_us = to_us(last_ns);
  for (const auto& [name, value] : metrics.counters)
    counter_event(w, name, close_us, value);
  for (const auto& [name, value] : metrics.gauges)
    counter_event(w, name, close_us, value);

  w.end_array();
  w.end_object();
  return std::move(w).str();
}

}  // namespace logstruct::obs
