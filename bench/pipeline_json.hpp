#pragma once

/// \file pipeline_json.hpp
/// BENCH_pipeline.json emitter: runs the extraction pipeline through the
/// pass manager, captures the per-pass wall time and allocation bytes
/// the PassManager already records, and writes one perf-trajectory
/// document per harness run. Schema `logstruct-bench-pipeline/v6`
/// (documented in docs/OBSERVABILITY.md): v6 adds the bench-gated
/// `order/check_causality` pseudo-pass (vector-clock oracle build +
/// happened-before check over the recovered structure, timed by the
/// micro_pipeline harness so checker cost regressions are caught like
/// any pass); v5 kept v4's per-workload `peak_rss_kb` plus the
/// storage-backend annotation (`storage`, `cache_hits`,
/// `cache_misses`, `cache_hit_rate`), v3's per-workload/per-pass
/// `threads`, v2's per-pass `alloc_bytes`, and the run-level
/// `peak_rss_kb`; older readers that ignore unknown keys keep working.
/// The committed BENCH_pipeline.json at the repo
/// root concatenates the `runs` arrays of historical runs so
/// `tools/bench_gate.py` can diff per-pass timings and allocations
/// across PRs — like-for-like per thread count, so a threads=8 run is
/// never judged against a threads=1 baseline.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "obs/memstats.hpp"
#include "order/context.hpp"
#include "order/phases.hpp"
#include "order/stepping.hpp"
#include "trace/trace.hpp"
#include "util/stopwatch.hpp"

namespace logstruct::bench {

struct PipelineWorkload {
  std::string name;
  std::int64_t events = 0;
  std::int32_t phases = 0;
  /// Pipeline thread budget the workload ran with (Options::threads
  /// resolved); the gate only compares workloads with equal counts.
  int threads = 1;
  double total_seconds = 0;
  /// Peak RSS attributable to this workload, measured by the harness
  /// between obs::reset_peak_rss() and the workload's end; 0 = not
  /// measured (the run-level peak_rss_kb still covers the process).
  std::int64_t peak_rss_kb = 0;
  /// Storage-backend annotation for out-of-core workloads: backend name
  /// ("mem"/"blocked[...]") and the block-cache counter deltas over the
  /// workload; empty/-1 = not a storage-annotated workload.
  std::string storage;
  std::int64_t cache_hits = -1;
  std::int64_t cache_misses = -1;
  std::vector<order::PassRecord> passes;
};

class PipelineTrajectory {
 public:
  explicit PipelineTrajectory(std::string program, std::string label = {})
      : program_(std::move(program)), label_(std::move(label)) {}

  /// Run the full pipeline (partition passes + stepping passes over one
  /// shared context) on t, recording wall time per pass.
  order::LogicalStructure run(const std::string& name,
                              const trace::Trace& t,
                              const order::Options& opts) {
    order::OrderContext ctx(t, opts);
    std::vector<order::PassRecord> records;
    util::Stopwatch sw;
    order::run_partition_pipeline(ctx, nullptr, &records);
    order::run_stepping_pipeline(ctx, &records);
    PipelineWorkload w;
    w.name = name;
    w.events = t.num_events();
    w.threads = opts.effective_threads();
    w.total_seconds = sw.seconds();
    w.phases = ctx.structure.num_phases();
    w.passes = std::move(records);
    workloads_.push_back(std::move(w));
    return std::move(ctx.structure);
  }

  /// Append an extra pass record to the most recently run workload —
  /// for stages timed by the harness itself rather than the pass
  /// manager (e.g. the `metrics/efficiency_suite` kernels, which run
  /// over the extracted structure). No-op before the first run().
  void add_pass(const std::string& pass_name, double seconds,
                std::int64_t alloc_bytes, int threads) {
    if (workloads_.empty()) return;
    order::PassRecord r;
    r.name = pass_name;
    r.seconds = seconds;
    r.alloc_bytes = alloc_bytes;
    r.threads = threads;
    r.ran = true;
    workloads_.back().passes.push_back(std::move(r));
  }

  /// Attach the storage/memory annotation to the most recently recorded
  /// workload (see PipelineWorkload). No-op before the first run().
  void annotate_storage(std::int64_t peak_rss_kb, std::string storage,
                        std::int64_t cache_hits, std::int64_t cache_misses) {
    if (workloads_.empty()) return;
    PipelineWorkload& w = workloads_.back();
    w.peak_rss_kb = peak_rss_kb;
    w.storage = std::move(storage);
    w.cache_hits = cache_hits;
    w.cache_misses = cache_misses;
  }

  /// Record a harness-built workload that did not go through run() —
  /// used for storage-backend sweeps timed outside the pass manager.
  void add_workload(PipelineWorkload w) {
    workloads_.push_back(std::move(w));
  }

  [[nodiscard]] const std::vector<PipelineWorkload>& workloads() const {
    return workloads_;
  }

  /// Write the document. Resolution order: explicit `path`, then the
  /// BENCH_PIPELINE_JSON environment variable, then `fallback` (pass ""
  /// to make emission opt-in for a harness). Best-effort like the obs
  /// sidecar: failure warns on stderr, never changes the exit code.
  void save(const std::string& path = {},
            const std::string& fallback = {}) const {
    std::string target = path;
    if (target.empty()) {
      if (const char* env = std::getenv("BENCH_PIPELINE_JSON"))
        target = env;
    }
    if (target.empty()) target = fallback;
    if (target.empty()) return;

    std::FILE* f = std::fopen(target.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "[warn] pipeline trajectory: cannot write %s\n",
                   target.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"schema\": \"logstruct-bench-pipeline/v6\",\n");
    std::fprintf(f, "  \"runs\": [\n    {\n");
    std::fprintf(f, "      \"program\": \"%s\",\n", program_.c_str());
    if (!label_.empty())
      std::fprintf(f, "      \"label\": \"%s\",\n", label_.c_str());
    std::fprintf(f, "      \"peak_rss_kb\": %lld,\n",
                 static_cast<long long>(obs::peak_rss_kb()));
    std::fprintf(f, "      \"alloc_hook\": %s,\n",
                 obs::alloc_hook_active() ? "true" : "false");
    std::fprintf(f, "      \"workloads\": [\n");
    for (std::size_t i = 0; i < workloads_.size(); ++i) {
      const PipelineWorkload& w = workloads_[i];
      std::fprintf(f,
                   "        {\"name\": \"%s\", \"events\": %lld, "
                   "\"phases\": %d, \"threads\": %d, "
                   "\"total_seconds\": %.6f,\n",
                   w.name.c_str(), static_cast<long long>(w.events),
                   w.phases, w.threads, w.total_seconds);
      if (w.peak_rss_kb > 0)
        std::fprintf(f, "         \"peak_rss_kb\": %lld,\n",
                     static_cast<long long>(w.peak_rss_kb));
      if (!w.storage.empty()) {
        const std::int64_t lookups = w.cache_hits + w.cache_misses;
        std::fprintf(
            f,
            "         \"storage\": \"%s\", \"cache_hits\": %lld, "
            "\"cache_misses\": %lld, \"cache_hit_rate\": %.4f,\n",
            w.storage.c_str(), static_cast<long long>(w.cache_hits),
            static_cast<long long>(w.cache_misses),
            lookups > 0 ? static_cast<double>(w.cache_hits) /
                              static_cast<double>(lookups)
                        : 0.0);
      }
      std::fprintf(f, "         \"passes\": [\n");
      for (std::size_t p = 0; p < w.passes.size(); ++p) {
        const order::PassRecord& r = w.passes[p];
        std::fprintf(f,
                     "           {\"pass\": \"%s\", \"seconds\": %.6f, "
                     "\"alloc_bytes\": %lld, \"threads\": %d, "
                     "\"ran\": %s}%s\n",
                     r.name.c_str(), r.seconds,
                     static_cast<long long>(r.alloc_bytes), r.threads,
                     r.ran ? "true" : "false",
                     p + 1 < w.passes.size() ? "," : "");
      }
      std::fprintf(f, "         ]}%s\n",
                   i + 1 < workloads_.size() ? "," : "");
    }
    std::fprintf(f, "      ]\n    }\n  ]\n}\n");
    std::fclose(f);
    std::printf("pipeline trajectory written to %s\n", target.c_str());
  }

 private:
  std::string program_;
  std::string label_;
  std::vector<PipelineWorkload> workloads_;
};

}  // namespace logstruct::bench
