#pragma once

/// \file flightrec.hpp
/// Crash flight recorder: a fixed-size lock-free ring of recent span
/// open/close events plus a SIGSEGV/SIGABRT handler that dumps the
/// ring, live counter/gauge values, progress, and RSS to a post-mortem
/// JSON artifact (schema logstruct-flightrec/v1, docs/FORMATS.md).
///
/// Recording (record()): the pipeline tracer calls it on every span
/// begin/end. A ticket from an atomic counter picks a slot; the writer
/// claims the slot by flipping its sequence word odd (skipping the
/// record if another writer holds it — wrap-around contention drops
/// rather than blocks), copies the span name into the slot's inline
/// buffer, and releases with an even sequence. No locks, no allocation,
/// ~100ns — cheap enough to stay always-on at span (stage) granularity.
///
/// Dumping (dump()): runs inside the signal handler, so it uses only
/// async-signal-safe primitives — open/write/close, atomic loads, and
/// hand-rolled integer formatting. Counter/gauge values come from a
/// pointer table captured from the registry in normal context
/// (refresh_metrics(), called at arm time and at every PassManager pass
/// boundary while armed); registry objects are never destroyed, so the
/// pointers stay valid.
/// Slots mutated mid-dump are detected via their sequence word and
/// skipped. The handler then re-raises with the default disposition so
/// exit codes and core dumps are unchanged.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

namespace logstruct::obs {

class FlightRecorder {
 public:
  static constexpr std::size_t kRingSize = 256;
  static constexpr std::size_t kNameLen = 48;   ///< truncating copy
  static constexpr std::size_t kMaxMetrics = 256;

  static FlightRecorder& global();

  /// Record one span event (kind: false = open, true = close). t_ns is
  /// tracer-epoch-relative. Lock-free; callable from any thread.
  void record(bool close, std::string_view name, std::int64_t t_ns,
              std::int32_t thread);

  /// Install SIGSEGV/SIGABRT handlers that dump to `path` (copied into
  /// a fixed buffer; truncated beyond ~500 bytes). Idempotent.
  void arm(std::string_view path);

  /// Restore the previous signal dispositions.
  void disarm();

  [[nodiscard]] bool armed() const;
  [[nodiscard]] std::string path() const;

  /// Re-capture the registry's counter/gauge pointer table (normal
  /// context only; concurrent callers are serialised). Called by arm()
  /// and by PassManager after each pass while armed, so metrics created
  /// mid-run appear in a later crash dump.
  void refresh_metrics();

  /// Write the dump document to fd. Async-signal-safe. `sig` is the
  /// signal number being reported (0 for a non-crash dump).
  bool dump(int fd, int sig) const;

  /// open(path) + dump() + close. Async-signal-safe.
  bool dump_to_path(int sig) const;

  /// Convenience for tests: dump() into a string via a pipe-free
  /// temp-file-less path (renders in normal context).
  [[nodiscard]] std::string to_json(int sig = 0) const;

  /// Number of records dropped to slot contention.
  [[nodiscard]] std::int64_t dropped() const;

  /// Clear the ring (tests). Not thread-safe against record().
  void reset();

 private:
  FlightRecorder() = default;

  struct Slot {
    std::atomic<std::uint64_t> seq{0};  ///< 0 empty; odd = writing;
                                        ///< even = (ticket+1)*2
    std::int64_t t_ns = 0;
    std::int32_t thread = 0;
    bool close = false;
    char name[kNameLen] = {0};
  };

  struct MetricRef {
    char name[64] = {0};
    const void* ptr = nullptr;  ///< Counter* or Gauge*
    bool is_gauge = false;
  };

  Slot ring_[kRingSize];
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::int64_t> dropped_{0};

  MetricRef metrics_[kMaxMetrics];
  std::atomic<std::uint32_t> metric_count_{0};
  std::atomic<std::uint32_t> metric_epoch_{0};  ///< odd while refreshing
  std::mutex refresh_mu_;  ///< one refresher at a time; dump() never locks

  char path_[512] = {0};
  std::atomic<bool> armed_{false};
};

}  // namespace logstruct::obs
