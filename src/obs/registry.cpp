#include "obs/registry.hpp"

#include <cstdio>
#include <cstdlib>

#include "obs/json.hpp"

namespace logstruct::obs {

namespace {

int bucket_of(std::int64_t v) {
  if (v <= 0) return 0;
  int b = 0;
  while (v > 0) {
    v >>= 1;
    ++b;
  }
  return b < Histogram::kBuckets ? b : Histogram::kBuckets - 1;
}

void atomic_min(std::atomic<std::int64_t>& slot, std::int64_t v) {
  std::int64_t cur = slot.load(std::memory_order_relaxed);
  while (v < cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<std::int64_t>& slot, std::int64_t v) {
  std::int64_t cur = slot.load(std::memory_order_relaxed);
  while (v > cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

void Histogram::record(std::int64_t v) {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  atomic_min(min_, v);
  atomic_max(max_, v);
  buckets_[static_cast<std::size_t>(bucket_of(v))].fetch_add(
      1, std::memory_order_relaxed);
}

std::int64_t Histogram::approx_quantile(double q) const {
  const std::int64_t n = count();
  if (n <= 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  std::int64_t rank = static_cast<std::int64_t>(q * static_cast<double>(n - 1));
  for (int b = 0; b < kBuckets; ++b) {
    rank -= bucket(b);
    if (rank < 0) {
      // Upper bound of bucket b: 0 for b=0, else 2^b - 1.
      return b == 0 ? 0 : (std::int64_t{1} << b) - 1;
    }
  }
  return max();
}

void Histogram::reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<std::int64_t>::max(),
             std::memory_order_relaxed);
  max_.store(std::numeric_limits<std::int64_t>::min(),
             std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

Registry& Registry::global() {
  static Registry* instance = new Registry();  // never destroyed: metric
  return *instance;                            // refs outlive static exit
}

Registry::Entry& Registry::find_or_create(std::string_view name, Kind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.kind = kind;
    switch (kind) {
      case Kind::Counter:
        e.counter = std::make_unique<Counter>();
        break;
      case Kind::Gauge:
        e.gauge = std::make_unique<Gauge>();
        break;
      case Kind::Histogram:
        e.histogram = std::make_unique<Histogram>();
        break;
    }
    it = entries_.emplace(std::string(name), std::move(e)).first;
  }
  if (it->second.kind != kind) {
    std::fprintf(stderr,
                 "obs: metric '%s' requested as two different kinds\n",
                 it->first.c_str());
    std::abort();
  }
  return it->second;
}

Counter& Registry::counter(std::string_view name) {
  return *find_or_create(name, Kind::Counter).counter;
}

Gauge& Registry::gauge(std::string_view name) {
  return *find_or_create(name, Kind::Gauge).gauge;
}

Histogram& Registry::histogram(std::string_view name) {
  return *find_or_create(name, Kind::Histogram).histogram;
}

RegistrySnapshot Registry::snapshot() const {
  RegistrySnapshot out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case Kind::Counter:
        out.counters.emplace_back(name, entry.counter->value());
        break;
      case Kind::Gauge:
        out.gauges.emplace_back(name, entry.gauge->value());
        break;
      case Kind::Histogram: {
        const Histogram& h = *entry.histogram;
        RegistrySnapshot::HistogramStats s;
        s.name = name;
        s.count = h.count();
        s.sum = h.sum();
        s.min = s.count > 0 ? h.min() : 0;
        s.max = s.count > 0 ? h.max() : 0;
        s.p50 = h.approx_quantile(0.5);
        s.p99 = h.approx_quantile(0.99);
        out.histograms.push_back(std::move(s));
        break;
      }
    }
  }
  return out;
}

Registry::RawMetrics Registry::raw_metrics() const {
  RawMetrics out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case Kind::Counter:
        out.counters.emplace_back(name, entry.counter.get());
        break;
      case Kind::Gauge:
        out.gauges.emplace_back(name, entry.gauge.get());
        break;
      case Kind::Histogram:
        break;
    }
  }
  return out;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case Kind::Counter:
        entry.counter->reset();
        break;
      case Kind::Gauge:
        entry.gauge->reset();
        break;
      case Kind::Histogram:
        entry.histogram->reset();
        break;
    }
  }
}

std::string Registry::to_json() const {
  RegistrySnapshot snap = snapshot();
  json::Writer w;
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, value] : snap.counters) {
    w.key(name);
    w.value(value);
  }
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, value] : snap.gauges) {
    w.key(name);
    w.value(value);
  }
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& h : snap.histograms) {
    w.key(h.name);
    w.begin_object();
    w.key("count");
    w.value(h.count);
    w.key("sum");
    w.value(h.sum);
    w.key("min");
    w.value(h.min);
    w.key("max");
    w.value(h.max);
    w.key("p50");
    w.value(h.p50);
    w.key("p99");
    w.value(h.p99);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return std::move(w).str();
}

}  // namespace logstruct::obs
