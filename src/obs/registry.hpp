#pragma once

/// \file registry.hpp
/// Process-wide metrics registry: counters, gauges, histograms, scoped
/// timers.
///
/// Updates are single atomic RMWs so instrumentation can stay compiled in
/// on hot paths; creation/lookup (the slow path) takes a mutex and is
/// amortized away by the function-local-static pattern of the OBS_*
/// macros. Metric objects are never destroyed or moved once created, so
/// cached references stay valid across Registry::reset() (which zeroes
/// values but keeps the objects).
///
/// Names follow `<layer>/<stage>/<name>`; see docs/OBSERVABILITY.md.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace logstruct::obs {

class Counter {
 public:
  void add(std::int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void inc() { add(1); }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Power-of-two bucketed histogram of non-negative values (negative
/// samples clamp to bucket 0). Bucket b counts samples in [2^(b-1), 2^b),
/// bucket 0 counts {0}; the layout supports ns-scale timers up to ~292
/// years without configuration.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void record(std::int64_t v);

  [[nodiscard]] std::int64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  /// min()/max() are int64 max/min while empty.
  [[nodiscard]] std::int64_t min() const {
    return min_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t max() const {
    return max_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t bucket(int b) const {
    return buckets_[static_cast<std::size_t>(b)].load(
        std::memory_order_relaxed);
  }

  /// Upper bound of the bucket holding the q-quantile (q in [0,1]);
  /// 0 when empty. Resolution is a factor of 2 — enough to rank stages.
  [[nodiscard]] std::int64_t approx_quantile(double q) const;

  void reset();

 private:
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> min_{std::numeric_limits<std::int64_t>::max()};
  std::atomic<std::int64_t> max_{std::numeric_limits<std::int64_t>::min()};
  std::array<std::atomic<std::int64_t>, kBuckets> buckets_{};
};

/// Point-in-time copy of every metric, for tests and JSON export.
struct RegistrySnapshot {
  struct HistogramStats {
    std::string name;
    std::int64_t count = 0;
    std::int64_t sum = 0;
    std::int64_t min = 0;
    std::int64_t max = 0;
    std::int64_t p50 = 0;
    std::int64_t p99 = 0;
  };
  std::vector<std::pair<std::string, std::int64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<HistogramStats> histograms;
};

class Registry {
 public:
  /// The process-wide instance (tests may construct private ones).
  static Registry& global();

  /// Find-or-create by name. The returned reference is stable for the
  /// registry's lifetime. A name is one kind only: re-requesting it as a
  /// different kind aborts (it is a programming error, like a duplicate
  /// flag definition).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  [[nodiscard]] RegistrySnapshot snapshot() const;

  /// Name + stable pointer for every counter and gauge. Metric objects
  /// are never destroyed or moved, so the pointers stay valid for the
  /// registry's lifetime — the crash flight recorder caches them and
  /// reads values with a single atomic load from a signal handler.
  struct RawMetrics {
    std::vector<std::pair<std::string, const Counter*>> counters;
    std::vector<std::pair<std::string, const Gauge*>> gauges;
  };
  [[nodiscard]] RawMetrics raw_metrics() const;

  /// Zero every metric (objects and cached references stay valid).
  void reset();

  /// Serialize the snapshot as a JSON object
  /// {"counters":{...},"gauges":{...},"histograms":{...}}.
  [[nodiscard]] std::string to_json() const;

 private:
  enum class Kind { Counter, Gauge, Histogram };
  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& find_or_create(std::string_view name, Kind kind);

  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> entries_;
};

/// RAII timer recording the scope's wall-clock duration (ns) into the
/// global registry histogram `name`. Prefer the OBS_SCOPED_TIMER macro so
/// the site compiles out under LOGSTRUCT_OBS=0.
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* name)
      : hist_(Registry::global().histogram(name)),
        start_(std::chrono::steady_clock::now()) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    hist_.record(std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - start_)
                     .count());
  }

 private:
  Histogram& hist_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace logstruct::obs
