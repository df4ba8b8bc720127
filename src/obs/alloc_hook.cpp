/// \file alloc_hook.cpp
/// Counting replacement for the global allocation functions.
///
/// Every operator new bumps the calling thread's cumulative counters
/// (memstats.hpp) and then defers to malloc, so AllocScope can report
/// per-scope allocation deltas and the pipeline tracer can attach
/// alloc_bytes/alloc_count to every span. Only the allocation side is
/// counted — free sizes are not portably observable, and the telemetry
/// question is "how much did this stage allocate", not live bytes
/// (that is what the RSS gauges answer).
///
/// The replacement is compiled only when LOGSTRUCT_OBS=1 and
/// LOGSTRUCT_ALLOC_HOOK=1: counting two thread-locals per allocation is
/// cheap but not free, and an OBS=0 build must carry zero
/// instrumentation. Under ASan the hook composes fine — ASan intercepts
/// the malloc/free these functions call, so leak checking and poisoning
/// still work.
///
/// memstats.cpp calls hook_linked(), which forces this object file out
/// of the static library whenever memstats is used — without that
/// reference the linker would keep libstdc++'s operator new and the
/// counters would silently stay zero.

#include <cstddef>
#include <cstdlib>
#include <new>

#include "obs/memstats.hpp"

#ifndef LOGSTRUCT_OBS
#define LOGSTRUCT_OBS 1
#endif
#ifndef LOGSTRUCT_ALLOC_HOOK
#define LOGSTRUCT_ALLOC_HOOK 1
#endif

#define LOGSTRUCT_ALLOC_HOOK_ENABLED (LOGSTRUCT_OBS && LOGSTRUCT_ALLOC_HOOK)

namespace logstruct::obs::detail {

bool hook_linked() { return LOGSTRUCT_ALLOC_HOOK_ENABLED != 0; }

#if LOGSTRUCT_ALLOC_HOOK_ENABLED

namespace {

inline void note(std::size_t n) {
  t_alloc_bytes += static_cast<std::int64_t>(n);
  ++t_alloc_count;
}

void* alloc_or_throw(std::size_t n) {
  for (;;) {
    if (void* p = std::malloc(n ? n : 1)) return p;
    std::new_handler h = std::get_new_handler();
    if (!h) throw std::bad_alloc();
    h();
  }
}

void* aligned_alloc_raw(std::size_t n, std::size_t align) {
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, n ? n : align) != 0) return nullptr;
  return p;
}

void* aligned_or_throw(std::size_t n, std::size_t align) {
  for (;;) {
    if (void* p = aligned_alloc_raw(n, align)) return p;
    std::new_handler h = std::get_new_handler();
    if (!h) throw std::bad_alloc();
    h();
  }
}

}  // namespace

#endif  // LOGSTRUCT_ALLOC_HOOK_ENABLED

}  // namespace logstruct::obs::detail

#if LOGSTRUCT_ALLOC_HOOK_ENABLED

using logstruct::obs::detail::aligned_or_throw;
using logstruct::obs::detail::alloc_or_throw;
using logstruct::obs::detail::note;

void* operator new(std::size_t n) {
  note(n);
  return alloc_or_throw(n);
}

void* operator new[](std::size_t n) {
  note(n);
  return alloc_or_throw(n);
}

void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  note(n);
  return std::malloc(n ? n : 1);
}

void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  note(n);
  return std::malloc(n ? n : 1);
}

void* operator new(std::size_t n, std::align_val_t a) {
  note(n);
  return aligned_or_throw(n, static_cast<std::size_t>(a));
}

void* operator new[](std::size_t n, std::align_val_t a) {
  note(n);
  return aligned_or_throw(n, static_cast<std::size_t>(a));
}

void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  note(n);
  return logstruct::obs::detail::aligned_alloc_raw(
      n, static_cast<std::size_t>(a));
}

void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  note(n);
  return logstruct::obs::detail::aligned_alloc_raw(
      n, static_cast<std::size_t>(a));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // LOGSTRUCT_ALLOC_HOOK_ENABLED
