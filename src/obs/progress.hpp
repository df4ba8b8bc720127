#pragma once

/// \file progress.hpp
/// Pass-progress instrumentation: a process-global (done, total) pair
/// plus the name of the innermost in-flight pass.
///
/// A Progress object is an RAII scope opened by a long pipeline pass
/// (blocked freeze, initial partitioning, stepping, metric kernels).
/// While it is open:
///  - tick()/set_done() update the global done counter and mirror
///    (done, total) into the registry gauges `obs/progress/done` and
///    `obs/progress/total`, so the pair lands in the sidecar's metrics
///    dump and the crash flight recorder's gauges;
///  - the pass name is published to a fixed global buffer the crash
///    flight recorder can read from a signal handler (current_pass());
///  - the optional --progress stderr ticker renders `pass done/total`.
///
/// Scopes nest (a pass opening a finer-grained sub-progress): the
/// innermost scope owns the globals and the destructor restores the
/// enclosing scope's state. Construction/destruction are expected from
/// the serial pass driver; tick() may be called from any worker thread
/// (it is a single relaxed fetch_add plus a gauge store).
///
/// Like the rest of obs, this is ordinary API: it stays compiled and
/// callable under LOGSTRUCT_OBS=0.

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace logstruct::obs {

class Progress {
 public:
  /// Open a progress scope for `pass`. total == 0 means indeterminate
  /// (the pass is named but reports no unit count).
  Progress(std::string_view pass, std::int64_t total);
  ~Progress();

  Progress(const Progress&) = delete;
  Progress& operator=(const Progress&) = delete;

  /// Advance the global done counter by n. Thread-safe; callable from
  /// parallel_for bodies (callers should batch, e.g. every 64K items).
  static void tick(std::int64_t n = 1);

  /// Overwrite the global done counter (monotonic use is on the caller).
  static void set_done(std::int64_t done);

  /// Grow the global total (for passes that discover work as they go).
  static void add_total(std::int64_t n);

  struct State {
    char pass[64] = {0};  ///< innermost pass name ("" = no pass open)
    std::int64_t done = 0;
    std::int64_t total = 0;  ///< 0 = indeterminate
  };
  /// Current (pass, done, total), for the ticker and tests.
  [[nodiscard]] static State current();

  /// Async-signal-safe copy of the in-flight pass name into buf
  /// (always NUL-terminated; returns the copied length).
  static std::size_t current_pass(char* buf, std::size_t n);

  /// Async-signal-safe (done, total) reads — single atomic loads, for
  /// the flight recorder's crash dump.
  [[nodiscard]] static std::int64_t done_now();
  [[nodiscard]] static std::int64_t total_now();

  /// Enable/disable the --progress stderr ticker (a small background
  /// thread repainting `pass done/total (pct)` every period_ms).
  static void enable_ticker(bool on, std::int64_t period_ms = 200);
  [[nodiscard]] static bool ticker_enabled();

 private:
  State saved_;  ///< enclosing scope's state, restored on destruction
};

}  // namespace logstruct::obs
