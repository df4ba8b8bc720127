#pragma once

/// \file export_chrome.hpp
/// Chrome trace-event JSON export for the pipeline tracer.
///
/// Converts a span snapshot plus a registry snapshot into the JSON
/// object format that Perfetto (https://ui.perfetto.dev) and
/// chrome://tracing load directly:
///  - closed spans become `ph:"X"` complete duration events on a
///    per-thread track (ts/dur in microseconds, attrs in args);
///  - still-open spans become `ph:"B"` begin events, so a crashed run's
///    partial trace remains loadable;
///  - counters and gauges become `ph:"C"` counter tracks sampled at the
///    final span timestamp (the registry keeps running totals, not a
///    time series — each track carries one closing sample);
///  - `ph:"M"` metadata events name the process and the tracer's dense
///    thread indices.
///
/// Wired into every harness as `--obs-chrome=<path>` by
/// util/obs_flags.hpp. See docs/OBSERVABILITY.md for a quickstart.

#include <string>
#include <string_view>
#include <vector>

#include "obs/pipeline.hpp"
#include "obs/registry.hpp"

namespace logstruct::obs {

/// Serialize spans + metrics as one Chrome trace-event JSON document:
/// {"displayTimeUnit":"ms","traceEvents":[...]}.
[[nodiscard]] std::string chrome_trace_json(
    const std::vector<Span>& spans, const RegistrySnapshot& metrics,
    std::string_view process_name = "logstruct");

}  // namespace logstruct::obs
