#pragma once

/// \file obs_flags.hpp
/// Shared `--profile` / `--obs-json` / `--log-level` / `--threads`
/// wiring for every bench and example harness.
///
/// Usage in a harness main():
///   util::Flags flags;
///   ... own defines ...
///   util::define_obs_flags(flags);
///   if (!flags.parse(argc, argv)) return 1;
///   util::apply_obs_flags(flags);
///   ... work ...
///   util::finish_obs(flags, argv[0]);   // table and/or JSON sidecar
///
/// --profile      prints a per-stage span summary table to stdout
///                (total and self time; shares are of self time so the
///                column sums to 100% despite span nesting).
/// --obs-json=p   writes the machine-readable telemetry sidecar to p
///                (schema logstruct-obs-sidecar/v5, see
///                docs/OBSERVABILITY.md; v3 added the `recovery`
///                object, v4 the `flight_recorder` reference, v5 drops
///                v4's `sampler` time series).
/// --obs-chrome=p writes a Chrome trace-event JSON file to p, loadable
///                in Perfetto / chrome://tracing.
/// --log-level=l  debug|info|warn|error for the structured logger.
/// --threads=N    worker threads for every parallel pipeline stage
///                (trace freezing, partition/merge passes, stepping,
///                metric kernels). 0 = all hardware threads; the
///                default 1 keeps harnesses fully serial. Results are
///                bit-identical for any value (see
///                docs/ARCHITECTURE.md, "Parallel execution").
/// --validate     run trace::validate() on every trace a harness ingests
///                and print structural problems (see
///                trace::validate_cli, which harnesses call with the
///                parsed flags).
/// --eff-json=p   writes the time-resolved efficiency report
///                (schema logstruct-effmetrics/v1, docs/METRICS.md) to
///                p. Harnesses with a recovered structure call
///                metrics::write_efficiency_report(flags, ...), which
///                honors this flag and --eff-bins (wall-clock bin
///                count, 0 = one bin per recovered phase).
/// --concurrency-json=p writes the concurrency report (schema
///                logstruct-concurrency/v1, docs/CAUSALITY.md) to p:
///                causally-unordered and commuting phase pairs per
///                window, from the vector-clock oracle's phase
///                reachability. Harnesses with a recovered structure
///                call metrics::write_concurrency_report(flags, ...),
///                which honors this flag and --concurrency-bins
///                (wall-clock bin count, 0 = one bin per phase).
/// --storage=b    trace storage backend: mem (default) or blocked
///                (out-of-core .lsblk store, docs/STORAGE.md). Seeds
///                $LOGSTRUCT_STORAGE, so it must be applied before the
///                first trace is built (apply_obs_flags at the top of
///                main() is early enough).
/// --cache-mb=N   block-cache budget in MiB for --storage=blocked
///                (0 = unbounded; -1 inherits $LOGSTRUCT_CACHE_MB).
///
/// Live telemetry (docs/OBSERVABILITY.md, "Live telemetry"):
/// --progress        paints a `pass done/total` ticker on stderr.
/// --obs-flightrec=p arms the crash flight recorder: SIGSEGV/SIGABRT
///                   dumps recent span events, live counters, progress,
///                   and RSS to p as logstruct-flightrec/v1 JSON.

#include <string>

#include "util/flags.hpp"

namespace logstruct::util {

void define_obs_flags(Flags& flags);

/// Apply parsed obs flags (log level) to the global obs singletons.
void apply_obs_flags(const Flags& flags);

/// Emit the profile table (--profile), JSON sidecar (--obs-json), and/or
/// Chrome trace (--obs-chrome). Returns false if an output could not be
/// written.
bool finish_obs(const Flags& flags, const std::string& program);

/// The sidecar document as a string (exposed for tests).
[[nodiscard]] std::string obs_sidecar_json(const std::string& program);

/// The Chrome trace-event document as a string (exposed for tests).
[[nodiscard]] std::string obs_chrome_json(const std::string& program);

}  // namespace logstruct::util
