#pragma once

/// \file pipeline.hpp
/// Begin/end span recording for the pipeline stages.
///
/// A span is one timed stage execution (builder ingest, order/initial,
/// order/stepping, each metric, ...) with optional integer attributes
/// (event / partition / merge counts). Spans nest through a per-thread
/// stack, so the recording doubles as a call tree; obs/export_chrome.hpp
/// renders it as a Chrome trace (`--obs-chrome`).
///
/// Recording takes one mutex acquisition per begin/end — spans are coarse
/// (stage granularity, not per event), so this is off any hot path. The
/// buffer is capped (default 1M spans); overflow drops spans and counts
/// the drops rather than growing without bound.

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace logstruct::obs {

using SpanId = std::int64_t;
inline constexpr SpanId kNoSpan = -1;

struct SpanAttr {
  std::string key;
  std::int64_t value = 0;
};

struct Span {
  std::string name;
  std::int64_t begin_ns = 0;  ///< steady-clock ns since tracer epoch
  std::int64_t end_ns = 0;    ///< == begin_ns while still open
  SpanId parent = kNoSpan;
  std::int32_t thread = 0;    ///< dense per-tracer thread index
  bool open = true;
  std::vector<SpanAttr> attrs;
  // Memory accounting (obs/memstats.hpp). While the span is open the
  // alloc fields hold the thread's cumulative counters at begin; end()
  // rewrites them as deltas. Zero when the alloc hook is not linked.
  std::int64_t alloc_bytes = 0;  ///< bytes allocated on the span's thread
  std::int64_t alloc_count = 0;  ///< allocation calls on the span's thread
  std::int64_t rss_peak_kb = 0;  ///< process VmHWM at span end (0 = n/a)
};

class PipelineTracer {
 public:
  PipelineTracer() = default;

  /// The process-wide instance (tests may construct private ones).
  static PipelineTracer& global();

  void set_enabled(bool on);
  [[nodiscard]] bool enabled() const;

  /// Maximum recorded spans; further begins are dropped (and counted).
  void set_capacity(std::size_t cap);

  /// Begin a span under the calling thread's innermost open span.
  /// Returns kNoSpan when disabled or the buffer is full.
  SpanId begin(std::string_view name);

  /// Close a span and pop it from the thread's stack. The span's duration
  /// is also recorded into the global Registry histogram of the same
  /// name, so every span doubles as a scoped timer.
  void end(SpanId id);

  /// Attach an integer attribute to an open or closed span.
  void attr(SpanId id, std::string_view key, std::int64_t value);

  [[nodiscard]] std::vector<Span> snapshot() const;
  [[nodiscard]] std::size_t dropped() const;

  /// Drop all recorded spans (per-thread stacks of live ScopedSpans are
  /// preserved; do not call with spans open if ids must stay meaningful).
  void reset();

  /// Serialize spans as a JSON array of objects
  /// {"name","begin_ns","end_ns","dur_ns","thread","parent","attrs":{}}.
  [[nodiscard]] std::string to_json() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::size_t capacity_ = std::size_t{1} << 20;
  std::size_t dropped_ = 0;
  bool enabled_ = true;
  std::int32_t next_thread_ = 0;
  std::int64_t epoch_ns_ = 0;  ///< lazily captured on first use
  bool epoch_set_ = false;
};

/// RAII wrapper: begins on construction, ends on destruction.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name)
      : tracer_(&PipelineTracer::global()), id_(tracer_->begin(name)) {}
  ScopedSpan(PipelineTracer& tracer, std::string_view name)
      : tracer_(&tracer), id_(tracer.begin(name)) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { tracer_->end(id_); }

  void attr(std::string_view key, std::int64_t value) {
    tracer_->attr(id_, key, value);
  }
  [[nodiscard]] SpanId id() const { return id_; }

 private:
  PipelineTracer* tracer_;
  SpanId id_;
};

/// Stand-in for OBS_SPAN(var, ...) under LOGSTRUCT_OBS=0 so `var.attr()`
/// still compiles (to nothing).
struct NoopSpan {
  void attr(std::string_view, std::int64_t) const {}
};

}  // namespace logstruct::obs
