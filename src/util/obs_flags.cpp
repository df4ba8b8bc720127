#include "util/obs_flags.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

#include "obs/export_chrome.hpp"
#include "obs/flightrec.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/obs.hpp"
#include "obs/progress.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace logstruct::util {

namespace {

struct StageAgg {
  std::int64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;  ///< total minus time inside child spans
  std::int64_t alloc_bytes = 0;
};

std::map<std::string, StageAgg> aggregate_spans(
    const std::vector<obs::Span>& spans) {
  // Child time per span id (span ids are indices into the snapshot), so
  // self time = duration - time spent in directly nested spans. Summing
  // self time never double-counts, unlike summing raw durations.
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const obs::Span& s : spans) {
    if (s.parent >= 0 &&
        static_cast<std::size_t>(s.parent) < child_ns.size())
      child_ns[static_cast<std::size_t>(s.parent)] +=
          s.end_ns - s.begin_ns;
  }
  std::map<std::string, StageAgg> agg;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const obs::Span& s = spans[i];
    const std::int64_t dur = s.end_ns - s.begin_ns;
    StageAgg& a = agg[s.name];
    ++a.count;
    a.total_ns += dur;
    a.self_ns += dur - child_ns[i];
    a.alloc_bytes += s.alloc_bytes;
  }
  return agg;
}

bool write_text_file(const std::string& path, const std::string& text,
                     const char* what) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    obs::log(obs::Level::Error, "obs", "cannot open output for writing",
             {{"what", what}, {"path", path}});
    return false;
  }
  out << text << '\n';
  if (!out.good()) {
    obs::log(obs::Level::Error, "obs", "write failed",
             {{"what", what}, {"path", path}});
    return false;
  }
  obs::log(obs::Level::Info, "obs", "wrote telemetry output",
           {{"what", what}, {"path", path}});
  return true;
}

}  // namespace

void define_obs_flags(Flags& flags) {
  flags.define_bool("profile", false,
                    "print per-stage telemetry (span totals) on exit");
  flags.define_string("obs-json", "",
                      "write the JSON telemetry sidecar here");
  flags.define_string("obs-chrome", "",
                      "write a Chrome trace-event JSON file here "
                      "(open in Perfetto / chrome://tracing)");
  flags.define_string("log-level", "info",
                      "structured-log threshold: debug|info|warn|error");
  flags.define_int("threads", 1,
                   "worker threads for the parallel pipeline stages "
                   "(0 = all hardware threads); results are "
                   "bit-identical for any value");
  flags.define_bool("validate", false,
                    "run trace::validate() on every ingested trace and "
                    "print any structural problems");
  flags.define_string("eff-json", "",
                      "write the logstruct-effmetrics/v1 efficiency "
                      "report here (POP metrics per time bin and per "
                      "recovered phase; see docs/METRICS.md)");
  flags.define_int("eff-bins", 0,
                   "wall-clock bins for the --eff-json report "
                   "(0 = one bin per recovered phase)");
  flags.define_string("concurrency-json", "",
                      "write the logstruct-concurrency/v1 report here "
                      "(causally-unordered and commuting phase pairs per "
                      "window, from the vector-clock oracle; see "
                      "docs/CAUSALITY.md)");
  flags.define_int("concurrency-bins", 0,
                   "wall-clock bins for the --concurrency-json report "
                   "(0 = one bin per recovered phase)");
  flags.define_string("storage", "",
                      "trace storage backend: mem (in-RAM columns, the "
                      "default) or blocked (out-of-core .lsblk block "
                      "store with an LRU block cache; see "
                      "docs/STORAGE.md). Empty inherits "
                      "$LOGSTRUCT_STORAGE");
  flags.define_int("cache-mb", -1,
                   "block-cache budget in MiB for --storage=blocked "
                   "(0 = unbounded); -1 inherits $LOGSTRUCT_CACHE_MB "
                   "or the 256 MiB default");
  flags.define_bool("progress", false,
                    "paint a `pass done/total` ticker on stderr");
  flags.define_string("obs-flightrec", "",
                      "arm the crash flight recorder: on SIGSEGV/SIGABRT "
                      "dump recent span events, live counters, and RSS "
                      "here as logstruct-flightrec/v1 JSON");
}

void apply_obs_flags(const Flags& flags) {
  const std::string& level = flags.get_string("log-level");
  obs::Level l = obs::Level::Info;
  if (level == "debug")
    l = obs::Level::Debug;
  else if (level == "info")
    l = obs::Level::Info;
  else if (level == "warn")
    l = obs::Level::Warn;
  else if (level == "error")
    l = obs::Level::Error;
  else
    obs::log(obs::Level::Warn, "obs", "unknown log level, keeping info",
             {{"requested", level}});
  obs::Logger::global().set_min_level(l);

  std::int64_t threads = flags.get_int("threads");
  if (threads < 0) {
    obs::log(obs::Level::Warn, "obs",
             "negative --threads, running serial",
             {{"requested", std::to_string(threads)}});
    threads = 1;
  }
  set_default_parallelism(static_cast<int>(threads));

  // Storage flags seed the environment that trace/storage/options.cpp
  // reads on first use (util cannot link the trace library, so the env
  // var is the handoff). apply_obs_flags() runs before any trace is
  // built in every harness, which is early enough.
  const std::string& storage = flags.get_string("storage");
  if (!storage.empty()) {
    if (storage == "mem" || storage == "blocked") {
      setenv("LOGSTRUCT_STORAGE", storage.c_str(), 1);
    } else {
      obs::log(obs::Level::Warn, "obs",
               "unknown --storage backend, keeping current",
               {{"requested", storage}});
    }
  }
  const std::int64_t cache_mb = flags.get_int("cache-mb");
  if (cache_mb >= 0)
    setenv("LOGSTRUCT_CACHE_MB", std::to_string(cache_mb).c_str(), 1);

  // Live telemetry: arm up front so the whole run is covered
  // (finish_obs stops the ticker).
  const std::string& flightrec = flags.get_string("obs-flightrec");
  if (!flightrec.empty()) obs::FlightRecorder::global().arm(flightrec);
  if (flags.get_bool("progress")) obs::Progress::enable_ticker(true);
}

std::string obs_sidecar_json(const std::string& program) {
  obs::PipelineTracer& tracer = obs::PipelineTracer::global();
  std::vector<obs::Span> spans = tracer.snapshot();
  auto agg = aggregate_spans(spans);
  const obs::MemStats mem = obs::read_mem_stats();

  // Recovery counters (fault-tolerant ingestion + degraded-quarantine
  // passes) are surfaced as their own top-level object so CI fuzz jobs
  // and obs_to_table.py --check can find them without walking the full
  // metrics dump.
  const obs::RegistrySnapshot reg = obs::Registry::global().snapshot();
  std::int64_t recovery_total = 0;
  std::vector<std::pair<std::string, std::int64_t>> recovery;
  for (const auto& [name, value] : reg.counters) {
    if (name.rfind("trace/recovery/", 0) == 0 ||
        name.rfind("order/degraded", 0) == 0) {
      recovery.emplace_back(name, value);
      recovery_total += value;
    }
  }

  obs::json::Writer w;
  w.begin_object();
  w.key("schema");
  w.value("logstruct-obs-sidecar/v5");
  w.key("program");
  w.value(program);
  w.key("obs_compiled");
  w.value(LOGSTRUCT_OBS != 0);
  w.key("alloc_hook");
  w.value(obs::alloc_hook_active());
  w.key("dropped_spans");
  w.value(static_cast<std::int64_t>(tracer.dropped()));
  w.key("peak_rss_kb");
  w.value(mem.peak_rss_kb);
  w.key("current_rss_kb");
  w.value(mem.current_rss_kb);
  w.key("stages");
  w.begin_object();
  for (const auto& [name, a] : agg) {
    w.key(name);
    w.begin_object();
    w.key("count");
    w.value(a.count);
    w.key("total_ns");
    w.value(a.total_ns);
    w.key("self_ns");
    w.value(a.self_ns);
    w.key("alloc_bytes");
    w.value(a.alloc_bytes);
    w.end_object();
  }
  w.end_object();
  w.key("recovery");
  w.begin_object();
  w.key("total");
  w.value(recovery_total);
  w.key("counters");
  w.begin_object();
  for (const auto& [name, value] : recovery) {
    w.key(name);
    w.value(value);
  }
  w.end_object();
  w.end_object();
  // v4: the flight-recorder reference.
  w.key("flight_recorder");
  w.begin_object();
  w.key("armed");
  w.value(obs::FlightRecorder::global().armed());
  w.key("path");
  w.value(obs::FlightRecorder::global().path());
  w.key("ring_capacity");
  w.value(static_cast<std::int64_t>(obs::FlightRecorder::kRingSize));
  w.key("ring_dropped");
  w.value(obs::FlightRecorder::global().dropped());
  w.end_object();
  w.key("spans");
  w.raw(tracer.to_json());
  w.key("metrics");
  w.raw(obs::Registry::global().to_json());
  w.end_object();
  return std::move(w).str();
}

std::string obs_chrome_json(const std::string& program) {
  obs::PipelineTracer& tracer = obs::PipelineTracer::global();
  return obs::chrome_trace_json(tracer.snapshot(),
                                obs::Registry::global().snapshot(), program);
}

bool finish_obs(const Flags& flags, const std::string& program) {
  const bool profile = flags.get_bool("profile");
  const std::string& path = flags.get_string("obs-json");
  const std::string& chrome_path = flags.get_string("obs-chrome");

  // Join the ticker thread before any export so exit stays clean (and
  // TSan quiet) in every harness.
  if (obs::Progress::ticker_enabled()) obs::Progress::enable_ticker(false);

  if (profile) {
#if LOGSTRUCT_OBS
    std::vector<obs::Span> spans = obs::PipelineTracer::global().snapshot();
    auto agg = aggregate_spans(spans);
    std::vector<std::pair<std::string, StageAgg>> rows(agg.begin(),
                                                       agg.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      return a.second.self_ns > b.second.self_ns;
    });
    // Shares are of summed *self* time (duration minus nested spans), so
    // the column totals 100% even though spans nest.
    std::int64_t grand_self = 0;
    for (const auto& [name, a] : rows) grand_self += a.self_ns;
    std::printf("\n--- telemetry (%zu spans) ---\n", spans.size());
    TablePrinter table({"stage", "calls", "total (ms)", "self (ms)",
                        "share", "alloc (KB)"});
    for (const auto& [name, a] : rows) {
      char share[16];
      std::snprintf(share, sizeof share, "%.1f%%",
                    grand_self > 0
                        ? 100.0 * static_cast<double>(a.self_ns) /
                              static_cast<double>(grand_self)
                        : 0.0);
      table.row()
          .add(name)
          .add(a.count)
          .add(static_cast<double>(a.total_ns) / 1e6, 3)
          .add(static_cast<double>(a.self_ns) / 1e6, 3)
          .add(share)
          .add(a.alloc_bytes / 1024);
    }
    table.print();
#else
    std::printf("\n--- telemetry unavailable: built with LOGSTRUCT_OBS=0 "
                "---\n");
#endif
  }

  bool ok = true;
  if (!chrome_path.empty())
    ok = write_text_file(chrome_path, obs_chrome_json(program),
                         "chrome trace") && ok;
  if (!path.empty())
    ok = write_text_file(path, obs_sidecar_json(program), "sidecar") && ok;
  return ok;
}

}  // namespace logstruct::util
