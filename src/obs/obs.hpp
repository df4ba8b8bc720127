#pragma once

/// \file obs.hpp
/// Self-instrumentation entry point: compile-time kill switch and the
/// macros the rest of the codebase uses to emit telemetry.
///
/// The library traces other programs; this layer lets it trace itself.
/// Three primitives (docs/OBSERVABILITY.md):
///  - Registry: process-wide counters / gauges / histograms, lock-free on
///    the hot path (one atomic add per update).
///  - PipelineTracer: begin/end spans for pipeline stages, exportable as
///    JSON or as a Chrome trace (obs/export_chrome.hpp).
///  - Logger: leveled, rate-limited structured logging (obs/log.hpp).
///
/// All instrumentation call sites go through the OBS_* macros below so a
/// `-DLOGSTRUCT_OBS=0` build compiles them out entirely; the obs API
/// itself stays available (it is ordinary code, not instrumentation).
///
/// Metric and span names follow `<layer>/<stage>/<name>`, e.g.
/// `order/infer_source_order` or `sim/charm/messages_enqueued`.

#ifndef LOGSTRUCT_OBS
#define LOGSTRUCT_OBS 1
#endif

#include "obs/memstats.hpp"
#include "obs/pipeline.hpp"
#include "obs/registry.hpp"

#define OBS_CONCAT_INNER_(a, b) a##b
#define OBS_CONCAT_(a, b) OBS_CONCAT_INNER_(a, b)

#if LOGSTRUCT_OBS

/// Open a pipeline span for the enclosing scope; `var` names the local so
/// attributes can be attached: OBS_SPAN(sp, "order/initial"); sp.attr(...).
#define OBS_SPAN(var, name) ::logstruct::obs::ScopedSpan var(name)

/// Anonymous span when no attributes are needed.
#define OBS_SPAN_ANON(name) \
  ::logstruct::obs::ScopedSpan OBS_CONCAT_(obs_span_anon_, __LINE__)(name)

/// Record the enclosing scope's duration into the histogram `name` (ns).
#define OBS_SCOPED_TIMER(name) \
  ::logstruct::obs::ScopedTimer OBS_CONCAT_(obs_timer_, __LINE__)(name)

/// Counter / gauge updates. `name` must be a string literal: the registry
/// handle is resolved once per call site (function-local static).
#define OBS_COUNTER_ADD(name, n)                                     \
  do {                                                               \
    static ::logstruct::obs::Counter& obs_counter_ =                 \
        ::logstruct::obs::Registry::global().counter(name);          \
    obs_counter_.add(n);                                             \
  } while (0)

#define OBS_COUNTER_INC(name) OBS_COUNTER_ADD(name, 1)

#define OBS_GAUGE_SET(name, v)                                       \
  do {                                                               \
    static ::logstruct::obs::Gauge& obs_gauge_ =                     \
        ::logstruct::obs::Registry::global().gauge(name);            \
    obs_gauge_.set(v);                                               \
  } while (0)

#define OBS_HISTOGRAM_RECORD(name, v)                                \
  do {                                                               \
    static ::logstruct::obs::Histogram& obs_hist_ =                  \
        ::logstruct::obs::Registry::global().histogram(name);        \
    obs_hist_.record(v);                                             \
  } while (0)

/// Thread-local allocation delta over the enclosing scope; `var` names
/// the local so the delta can be read: OBS_ALLOC_SCOPE(as);
/// ... work ...; auto d = as.delta(). Zeros without the counting hook
/// (obs/memstats.hpp).
#define OBS_ALLOC_SCOPE(var) ::logstruct::obs::AllocScope var

#else  // LOGSTRUCT_OBS == 0: zero-overhead build, call sites vanish.

#define OBS_SPAN(var, name) \
  ::logstruct::obs::NoopSpan var;  \
  (void)var
#define OBS_SPAN_ANON(name) \
  do {                      \
  } while (0)
#define OBS_SCOPED_TIMER(name) \
  do {                         \
  } while (0)
#define OBS_COUNTER_ADD(name, n) \
  do {                           \
    (void)sizeof(n);             \
  } while (0)
#define OBS_COUNTER_INC(name) \
  do {                        \
  } while (0)
#define OBS_GAUGE_SET(name, v) \
  do {                         \
    (void)sizeof(v);           \
  } while (0)
#define OBS_HISTOGRAM_RECORD(name, v) \
  do {                                \
    (void)sizeof(v);                  \
  } while (0)
#define OBS_ALLOC_SCOPE(var)           \
  ::logstruct::obs::NoopAllocScope var; \
  (void)var

#endif  // LOGSTRUCT_OBS
