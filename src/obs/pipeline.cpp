#include "obs/pipeline.hpp"

#include <chrono>
#include <unordered_map>

#include "obs/flightrec.hpp"
#include "obs/json.hpp"
#include "obs/memstats.hpp"
#include "obs/registry.hpp"

namespace logstruct::obs {

namespace {

struct ThreadState {
  std::int32_t index = -1;          ///< dense thread id within the tracer
  std::vector<SpanId> open_stack;   ///< innermost open span last
};

/// Per-thread state, keyed by tracer so private test instances do not
/// share stacks with the global one.
ThreadState& thread_state(const PipelineTracer* tracer) {
  thread_local std::unordered_map<const PipelineTracer*, ThreadState> states;
  return states[tracer];
}

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// VmHWM refreshed at most once per ms per thread: a /proc read costs a
/// few microseconds, and the high-water mark is monotonic, so a slightly
/// stale value only under-reports within the refresh window.
std::int64_t cached_peak_rss_kb(std::int64_t now_ns) {
  thread_local std::int64_t last_ns = -1;
  thread_local std::int64_t last_kb = 0;
  if (last_ns < 0 || now_ns - last_ns > 1'000'000) {
    last_kb = peak_rss_kb();
    last_ns = now_ns;
  }
  return last_kb;
}

}  // namespace

PipelineTracer& PipelineTracer::global() {
  static PipelineTracer* instance = new PipelineTracer();  // never destroyed
  return *instance;
}

void PipelineTracer::set_enabled(bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_ = on;
}

bool PipelineTracer::enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return enabled_;
}

void PipelineTracer::set_capacity(std::size_t cap) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = cap;
}

SpanId PipelineTracer::begin(std::string_view name) {
  // Capture before any of our own allocations so the span's delta is
  // dominated by the instrumented stage, not by the tracer.
  const AllocCounters allocs = thread_allocs();
  const std::int64_t t = steady_ns();
  ThreadState& ts = thread_state(this);
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_) return kNoSpan;
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return kNoSpan;
  }
  if (!epoch_set_) {
    epoch_ns_ = t;
    epoch_set_ = true;
  }
  if (ts.index < 0) ts.index = next_thread_++;

  Span s;
  s.name = std::string(name);
  s.begin_ns = t - epoch_ns_;
  s.end_ns = s.begin_ns;
  s.parent = ts.open_stack.empty() ? kNoSpan : ts.open_stack.back();
  s.thread = ts.index;
  s.alloc_bytes = allocs.bytes;  // cumulative marker; end() makes a delta
  s.alloc_count = allocs.count;
  const SpanId id = static_cast<SpanId>(spans_.size());
  const std::int64_t begin_ns = s.begin_ns;
  const std::int32_t thread = s.thread;
  spans_.push_back(std::move(s));
  ts.open_stack.push_back(id);
  // Feed the crash flight recorder's ring (lock-free; always on — the
  // ring is how a post-mortem dump names recent and in-flight stages).
  if (this == &global())
    FlightRecorder::global().record(false, name, begin_ns, thread);
  return id;
}

void PipelineTracer::end(SpanId id) {
  if (id == kNoSpan) return;
  // Span begin/end run on the same thread (ScopedSpan is RAII), so the
  // cumulative-counter delta is this thread's allocation inside the span.
  const AllocCounters allocs = thread_allocs();
  const std::int64_t t = steady_ns();
  const std::int64_t peak_kb = cached_peak_rss_kb(t);
  ThreadState& ts = thread_state(this);
  std::string name;
  std::int64_t dur = 0;
  std::int64_t end_rel = 0;
  std::int32_t thread = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (id < 0 || static_cast<std::size_t>(id) >= spans_.size()) return;
    Span& s = spans_[static_cast<std::size_t>(id)];
    if (!s.open) return;
    s.end_ns = t - epoch_ns_;
    end_rel = s.end_ns;
    thread = s.thread;
    s.open = false;
    s.alloc_bytes = allocs.bytes - s.alloc_bytes;
    s.alloc_count = allocs.count - s.alloc_count;
    s.rss_peak_kb = peak_kb;
    name = s.name;
    dur = s.end_ns - s.begin_ns;
    // Unwind the thread stack past this span (robust against a missed
    // end of a nested span).
    while (!ts.open_stack.empty()) {
      SpanId top = ts.open_stack.back();
      ts.open_stack.pop_back();
      if (top == id) break;
    }
  }
  // Dogfooding the registry: every span is also a scoped timer.
  Registry::global().histogram(name).record(dur);
  if (this == &global())
    FlightRecorder::global().record(true, name, end_rel, thread);
}

void PipelineTracer::attr(SpanId id, std::string_view key,
                          std::int64_t value) {
  if (id == kNoSpan) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || static_cast<std::size_t>(id) >= spans_.size()) return;
  spans_[static_cast<std::size_t>(id)].attrs.push_back(
      SpanAttr{std::string(key), value});
}

std::vector<Span> PipelineTracer::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::size_t PipelineTracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void PipelineTracer::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
  dropped_ = 0;
}

std::string PipelineTracer::to_json() const {
  std::vector<Span> spans = snapshot();
  json::Writer w;
  w.begin_array();
  for (const Span& s : spans) {
    w.begin_object();
    w.key("name");
    w.value(s.name);
    w.key("begin_ns");
    w.value(s.begin_ns);
    w.key("end_ns");
    w.value(s.end_ns);
    w.key("dur_ns");
    w.value(s.end_ns - s.begin_ns);
    w.key("thread");
    w.value(s.thread);
    w.key("parent");
    w.value(s.parent);
    w.key("open");
    w.value(s.open);
    w.key("attrs");
    w.begin_object();
    // Memory accounting rides along as synthetic attributes so sidecar
    // consumers need no special casing (v2 sidecar schema).
    w.key("alloc_bytes");
    w.value(s.open ? std::int64_t{0} : s.alloc_bytes);
    w.key("alloc_count");
    w.value(s.open ? std::int64_t{0} : s.alloc_count);
    w.key("rss_peak_kb");
    w.value(s.rss_peak_kb);
    for (const SpanAttr& a : s.attrs) {
      w.key(a.key);
      w.value(a.value);
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  return std::move(w).str();
}

}  // namespace logstruct::obs
