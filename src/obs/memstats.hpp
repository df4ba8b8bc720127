#pragma once

/// \file memstats.hpp
/// Memory accounting for the self-instrumentation layer.
///
/// Two independent sources:
///  - Process RSS from /proc/self/status (VmRSS = current, VmHWM = peak
///    high-water mark), zeros on platforms without procfs. One read costs
///    a few microseconds — fine at span granularity, not in hot loops.
///  - Thread-local allocation counters fed by the replacement operator
///    new in alloc_hook.cpp (compiled in when LOGSTRUCT_OBS=1 and
///    LOGSTRUCT_ALLOC_HOOK is ON). Counters are cumulative per thread;
///    AllocScope captures a delta over a scope. Without the hook the
///    counters stay zero, so consumers must treat 0 as "unavailable",
///    not "no allocation" — alloc_hook_active() tells them apart.
///
/// Like the rest of obs, this is ordinary API: it stays compiled and
/// callable under LOGSTRUCT_OBS=0 (only the OBS_ALLOC_SCOPE macro and
/// the hook itself vanish).

#include <cstdint>

namespace logstruct::obs {

struct MemStats {
  std::int64_t current_rss_kb = 0;  ///< VmRSS; 0 when unavailable
  std::int64_t peak_rss_kb = 0;     ///< VmHWM; 0 when unavailable
};

/// One parse of /proc/self/status; zeros where the field (or procfs)
/// is missing.
[[nodiscard]] MemStats read_mem_stats();

[[nodiscard]] std::int64_t current_rss_kb();
[[nodiscard]] std::int64_t peak_rss_kb();

/// Reset the kernel's peak-RSS high-water mark (VmHWM) to the current
/// RSS via /proc/self/clear_refs, so peak_rss_kb() measures only the
/// phase that follows. Returns false where unsupported (non-Linux, or
/// procfs not writable); callers must then treat the peak as cumulative.
bool reset_peak_rss();

struct AllocCounters {
  std::int64_t bytes = 0;
  std::int64_t count = 0;
};

/// Cumulative heap allocations performed by the calling thread since it
/// started (zeros without the counting hook).
[[nodiscard]] AllocCounters thread_allocs();

/// True when the counting operator-new replacement is linked in.
[[nodiscard]] bool alloc_hook_active();

/// Add allocations performed elsewhere (e.g. by pool workers on behalf of
/// this thread) to the calling thread's counters, so an enclosing
/// AllocScope sees fanned-out work as if it ran inline.
void credit_external_allocs(const AllocCounters& delta);

namespace detail {
/// Written by alloc_hook.cpp's operator new. Constant-initialized PODs,
/// safe to bump during static initialization and thread start-up.
extern thread_local std::int64_t t_alloc_bytes;
extern thread_local std::int64_t t_alloc_count;

/// Defined in alloc_hook.cpp; referencing it from memstats.cpp forces
/// the hook's object file (and with it the operator new replacement)
/// to be pulled out of the static library.
bool hook_linked();
}  // namespace detail

/// RAII delta of the calling thread's allocation counters. Begin and end
/// must run on the same thread (like ScopedSpan).
class AllocScope {
 public:
  AllocScope() : start_(thread_allocs()) {}

  [[nodiscard]] AllocCounters delta() const {
    AllocCounters now = thread_allocs();
    return {now.bytes - start_.bytes, now.count - start_.count};
  }

 private:
  AllocCounters start_;
};

/// Stand-in for OBS_ALLOC_SCOPE(var) under LOGSTRUCT_OBS=0 so
/// `var.delta()` still compiles (to zeros).
struct NoopAllocScope {
  [[nodiscard]] AllocCounters delta() const { return {}; }
};

}  // namespace logstruct::obs
