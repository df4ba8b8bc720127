/// Google-benchmark micro suite for the pipeline building blocks
/// (Sec. 3.3's complexity discussion): initial partitioning, the merge
/// passes, full phase finding, step assignment, SCC, and leap
/// computation, across trace sizes.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "apps/jacobi2d.hpp"
#include "pipeline_json.hpp"
#include "apps/lulesh.hpp"
#include "apps/mergetree.hpp"
#include "sim/taskdag/taskdag.hpp"
#include "graph/leaps.hpp"
#include "graph/scc.hpp"
#include "metrics/efficiency.hpp"
#include "metrics/windows.hpp"
#include "obs/memstats.hpp"
#include "obs/pipeline.hpp"
#include "order/initial.hpp"
#include "trace/io.hpp"
#include "trace/storage/block_cache.hpp"
#include "trace/storage/blocked_trace.hpp"
#include "trace/storage/options.hpp"
#include "order/causality.hpp"
#include "order/context.hpp"
#include "order/merges.hpp"
#include "order/phases.hpp"
#include "order/stepping.hpp"
#include "util/crc32c.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace logstruct;

trace::Trace lulesh_trace(std::int32_t grid) {
  apps::LuleshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = grid;
  cfg.num_pes = 8;
  cfg.iterations = 4;
  return apps::run_lulesh_charm(cfg);
}

void BM_InitialPartitions(benchmark::State& state) {
  trace::Trace t = lulesh_trace(static_cast<std::int32_t>(state.range(0)));
  for (auto _ : state) {
    order::OrderContext ctx(t, order::Options{});
    auto pg = order::build_initial_partitions(ctx);
    benchmark::DoNotOptimize(pg.num_partitions());
  }
  state.SetItemsProcessed(state.iterations() * t.num_events());
}
BENCHMARK(BM_InitialPartitions)->Arg(2)->Arg(4)->Arg(6);

void BM_DependencyMerge(benchmark::State& state) {
  trace::Trace t = lulesh_trace(static_cast<std::int32_t>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    order::OrderContext ctx(t, order::Options{});
    ctx.set_pg(order::build_initial_partitions(ctx));
    ctx.pg().cycle_merge();
    state.ResumeTiming();
    order::dependency_merge(ctx);
    benchmark::DoNotOptimize(ctx.pg().num_partitions());
  }
  state.SetItemsProcessed(state.iterations() * t.num_events());
}
BENCHMARK(BM_DependencyMerge)->Arg(2)->Arg(4)->Arg(6);

void BM_FindPhases(benchmark::State& state) {
  trace::Trace t = lulesh_trace(static_cast<std::int32_t>(state.range(0)));
  order::PartitionOptions opts;
  for (auto _ : state) {
    auto phases = order::find_phases(t, opts);
    benchmark::DoNotOptimize(phases.num_phases());
  }
  state.SetItemsProcessed(state.iterations() * t.num_events());
}
BENCHMARK(BM_FindPhases)->Arg(2)->Arg(4)->Arg(6);

void BM_ExtractStructure(benchmark::State& state) {
  trace::Trace t = lulesh_trace(static_cast<std::int32_t>(state.range(0)));
  for (auto _ : state) {
    auto ls = order::extract_structure(t, order::Options::charm());
    benchmark::DoNotOptimize(ls.max_step);
  }
  state.SetItemsProcessed(state.iterations() * t.num_events());
}
BENCHMARK(BM_ExtractStructure)->Arg(2)->Arg(4)->Arg(6);

/// End-to-end extraction on the largest LULESH grid at an explicit
/// thread count (range(0) = grid, range(1) = threads); the threads=1 /
/// threads=hw pair is what the trajectory document records and what the
/// ISSUE's >= 1.5x speedup criterion is measured on. Registered from
/// main() so threads=hardware is resolved at runtime.
void BM_ExtractStructureThreads(benchmark::State& state) {
  trace::Trace t = lulesh_trace(static_cast<std::int32_t>(state.range(0)));
  order::Options opts = order::Options::charm();
  opts.threads = static_cast<int>(state.range(1));
  for (auto _ : state) {
    auto ls = order::extract_structure(t, opts);
    benchmark::DoNotOptimize(ls.max_step);
  }
  state.SetItemsProcessed(state.iterations() * t.num_events());
}

void register_threaded_benchmarks() {
  const int hw = logstruct::util::ThreadPool::hardware_threads();
  std::vector<int> counts = {1};
  if (hw > 1) counts.push_back(hw);
  if (hw != 4) counts.push_back(4);  // fixed oversubscription point
  for (int t : counts) {
    benchmark::RegisterBenchmark("BM_ExtractStructureThreads",
                                 &BM_ExtractStructureThreads)
        ->Args({6, t});
  }
}

/// Full extraction with the trace frozen on each storage backend
/// (range(0): 0 = mem, 1 = blocked with the default 256 MiB cache) —
/// the steady-state read-path overhead of serving every accessor
/// through the block cache instead of raw vectors.
void BM_BlockedExtract(benchmark::State& state) {
  trace::storage::StorageOptions sopts = trace::storage::default_options();
  sopts.kind = state.range(0) != 0
                   ? trace::storage::BackendKind::Blocked
                   : trace::storage::BackendKind::Mem;
  trace::storage::ScopedStorageOptions scope(sopts);
  trace::Trace t = lulesh_trace(6);
  trace::storage::BlockCache::global().reset_stats();
  for (auto _ : state) {
    auto ls = order::extract_structure(t, order::Options::charm());
    benchmark::DoNotOptimize(ls.max_step);
  }
  const trace::storage::BlockCache::Stats stats =
      trace::storage::BlockCache::global().stats();
  const double lookups =
      static_cast<double>(stats.hits) + static_cast<double>(stats.misses);
  state.counters["cache_hit_rate"] =
      lookups > 0 ? static_cast<double>(stats.hits) / lookups : 0.0;
  state.SetLabel(state.range(0) != 0 ? "storage=blocked" : "storage=mem");
  state.SetItemsProcessed(state.iterations() * t.num_events());
}
BENCHMARK(BM_BlockedExtract)->Arg(0)->Arg(1);

/// Phase-window construction + all four POP efficiency kernels over an
/// already-extracted structure (docs/METRICS.md): the cost of the
/// time-resolved metrics layer alone, excluding extraction.
void BM_EfficiencySuite(benchmark::State& state) {
  trace::Trace t = lulesh_trace(static_cast<std::int32_t>(state.range(0)));
  auto ls = order::extract_structure(t, order::Options::charm());
  for (auto _ : state) {
    metrics::WindowSet ws = metrics::WindowSet::phases(t, ls.phases);
    metrics::EfficiencySuite suite = metrics::efficiency_suite(t, ws);
    benchmark::DoNotOptimize(suite.parallel.summary.mean);
  }
  state.SetItemsProcessed(state.iterations() * t.num_events());
}
BENCHMARK(BM_EfficiencySuite)->Arg(2)->Arg(4)->Arg(6);

void BM_StepAssignOnly(benchmark::State& state) {
  trace::Trace t = lulesh_trace(static_cast<std::int32_t>(state.range(0)));
  order::Options opts = order::Options::charm();
  auto phases = order::find_phases(t, opts.partition);
  for (auto _ : state) {
    auto copy = phases;
    auto ls = order::assign_steps(t, std::move(copy), opts);
    benchmark::DoNotOptimize(ls.max_step);
  }
  state.SetItemsProcessed(state.iterations() * t.num_events());
}
BENCHMARK(BM_StepAssignOnly)->Arg(2)->Arg(4)->Arg(6);

graph::Digraph random_dag(std::int32_t n, std::int32_t degree) {
  graph::Digraph g(n);
  std::uint64_t x = 88172645463325252ULL;
  auto rnd = [&x]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::int32_t u = 1; u < n; ++u) {
    for (std::int32_t k = 0; k < degree; ++k) {
      g.add_edge(static_cast<graph::NodeId>(rnd() % static_cast<std::uint64_t>(u)),
                 u);
    }
  }
  g.finalize();
  return g;
}

void BM_Scc(benchmark::State& state) {
  graph::Digraph g = random_dag(static_cast<std::int32_t>(state.range(0)), 3);
  for (auto _ : state) {
    auto scc = graph::strongly_connected_components(g);
    benchmark::DoNotOptimize(scc.num_components);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Scc)->Arg(1024)->Arg(16384)->Arg(131072);

void BM_Leaps(benchmark::State& state) {
  graph::Digraph g = random_dag(static_cast<std::int32_t>(state.range(0)), 3);
  for (auto _ : state) {
    auto leaps = graph::compute_leaps(g);
    benchmark::DoNotOptimize(leaps.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Leaps)->Arg(1024)->Arg(16384)->Arg(131072);

void BM_MpiSimulation(benchmark::State& state) {
  apps::MergeTreeConfig cfg;
  cfg.num_ranks = static_cast<std::int32_t>(state.range(0));
  for (auto _ : state) {
    trace::Trace t = apps::run_mergetree_mpi(cfg);
    benchmark::DoNotOptimize(t.num_events());
  }
}
BENCHMARK(BM_MpiSimulation)->Arg(64)->Arg(1024);

void BM_TaskDagSimulation(benchmark::State& state) {
  sim::taskdag::TaskGraph g = sim::taskdag::stencil_1d(
      static_cast<std::int32_t>(state.range(0)), 16);
  sim::taskdag::TaskDagConfig cfg;
  for (auto _ : state) {
    trace::Trace t = sim::taskdag::simulate(g, cfg);
    benchmark::DoNotOptimize(t.num_events());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.size()));
}
BENCHMARK(BM_TaskDagSimulation)->Arg(16)->Arg(64);

void BM_JacobiSimulation(benchmark::State& state) {
  for (auto _ : state) {
    apps::Jacobi2DConfig cfg;
    cfg.chares_x = 8;
    cfg.chares_y = 8;
    cfg.num_pes = 8;
    cfg.iterations = static_cast<std::int32_t>(state.range(0));
    trace::Trace t = apps::run_jacobi2d(cfg);
    benchmark::DoNotOptimize(t.num_events());
  }
}
BENCHMARK(BM_JacobiSimulation)->Arg(2)->Arg(8);

/// Per-pass wall-time + allocation trajectory over the LULESH grids the
/// BM_* suite uses (grid g => g^3 chares), written as
/// BENCH_pipeline.json (schema logstruct-bench-pipeline/v6; override
/// the path with the BENCH_PIPELINE_JSON environment variable).
/// tools/bench_gate.py diffs these documents across PRs, like-for-like
/// per thread count. The largest grid is re-run at threads=hardware
/// (and at a fixed threads=4 oversubscription point) so the trajectory
/// captures the parallel pipeline's scaling alongside the serial
/// baseline. Each workload also records a `metrics/efficiency_suite`
/// pseudo-pass — phase windows + the four POP kernels over the
/// extracted structure — timed here because the metrics layer runs
/// after the pass manager (docs/METRICS.md) — and an
/// `order/check_causality` pseudo-pass: vector-clock oracle build plus
/// the happened-before check over the recovered structure, at the
/// workload's thread count (docs/CAUSALITY.md). The checker is opt-in
/// in production, so its cost is gated here instead of inside the
/// pass-manager run.
void emit_pipeline_trajectory() {
#if defined(__GLIBC__)
  // Pin glibc's mmap threshold at its dynamic cap. By default the
  // threshold ramps up as large chunks are freed, so whether a
  // workload's big vectors come from mmap (returned to the OS on free)
  // or the sbrk arena (retained, reusable by the next workload) depends
  // on the exact free history and ASLR — which made the storage sweep's
  // per-workload RSS attribution bimodal across runs (~2x swings on the
  // tight-cache row). Pinning the threshold up front reproduces the
  // converged steady state deterministically.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
#endif
  bench::PipelineTrajectory traj("micro_pipeline");
  auto run_with_efficiency = [&traj](const std::string& name,
                                     const trace::Trace& t,
                                     const order::Options& opts) {
    order::LogicalStructure ls = traj.run(name, t, opts);
    obs::AllocScope allocs;
    util::Stopwatch sw;
    metrics::WindowSet ws = metrics::WindowSet::phases(t, ls.phases);
    metrics::EfficiencySuite suite =
        metrics::efficiency_suite(t, ws, opts.threads);
    benchmark::DoNotOptimize(suite.parallel.summary.mean);
    traj.add_pass("metrics/efficiency_suite", sw.seconds(),
                  allocs.delta().bytes, opts.effective_threads());
    // The causality checker as a bench-gated pseudo-pass: oracle build
    // plus the full happened-before check over the recovered structure.
    // It is opt-in in production, so its cost lives here (not inside
    // traj.run) — but a regression in the oracle's topological sweep or
    // the fallback walk must trip the gate like any real pass.
    obs::AllocScope check_allocs;
    util::Stopwatch check_sw;
    order::CausalityOptions copts;
    copts.threads = opts.threads;
    order::CausalityOracle oracle(t, copts);
    order::CausalityReport report = order::check_causality(t, ls, oracle);
    benchmark::DoNotOptimize(report.edges_checked);
    if (!report.clean()) {
      std::fprintf(stderr, "micro_pipeline: %lld causality violations!\n",
                   static_cast<long long>(report.total_violations));
      std::abort();
    }
    traj.add_pass("order/check_causality", check_sw.seconds(),
                  check_allocs.delta().bytes, opts.effective_threads());
  };
  for (std::int32_t grid : {2, 4, 6}) {
    trace::Trace t = lulesh_trace(grid);
    char name[64];
    std::snprintf(name, sizeof(name), "lulesh/chares=%d",
                  grid * grid * grid);
    run_with_efficiency(name, t, order::Options::charm());
  }
  {
    trace::Trace t = lulesh_trace(6);
    const int hw = util::ThreadPool::hardware_threads();
    std::vector<int> counts;
    if (hw > 1) counts.push_back(hw);
    if (hw != 4) counts.push_back(4);
    for (int threads : counts) {
      order::Options opts = order::Options::charm();
      opts.threads = threads;
      run_with_efficiency("lulesh/chares=216", t, opts);
    }
  }
  {
    apps::Jacobi2DConfig cfg;
    cfg.chares_x = 8;
    cfg.chares_y = 8;
    cfg.num_pes = 8;
    cfg.iterations = 8;
    trace::Trace t = apps::run_jacobi2d(cfg);
    run_with_efficiency("jacobi2d/8x8", t, order::Options::charm());
  }
  {
    apps::MergeTreeConfig cfg;
    cfg.num_ranks = 64;
    trace::Trace t = apps::run_mergetree_mpi(cfg);
    run_with_efficiency("mergetree/ranks=64", t, order::Options::mpi());
  }

  // Storage-backend sweep: one large LULESH run per backend, covering
  // the full lifecycle (simulate + freeze + column sweep + extraction)
  // so the mem backend's resident columns and the blocked backend's
  // bounded cache both show up in the per-workload peak_rss_kb. The
  // gate (tools/bench_gate.py) tracks that number per workload across
  // PRs; the blocked rows must stay materially below the mem row. Each
  // row records the lifecycle's layers: `sim/lulesh` (simulation and
  // freeze), `trace/structure_hash` (the column sweep), every pass of
  // the extraction, and the whole as `storage/lifecycle`.
  {
    struct StorageCase {
      const char* name;
      trace::storage::BackendKind kind;
      std::uint64_t cache_bytes;
    };
    const StorageCase cases[] = {
        {"mem", trace::storage::BackendKind::Mem, 0},
        {"blocked-256mb", trace::storage::BackendKind::Blocked,
         256ull << 20},
        {"blocked-8mb", trace::storage::BackendKind::Blocked, 8ull << 20},
    };
    for (const StorageCase& c : cases) {
      trace::storage::StorageOptions sopts =
          trace::storage::default_options();
      sopts.kind = c.kind;
      if (c.cache_bytes != 0) sopts.cache_bytes = c.cache_bytes;
      trace::storage::ScopedStorageOptions scope(sopts);
      trace::storage::BlockCache& cache = trace::storage::BlockCache::global();
      cache.reset_stats();
      obs::reset_peak_rss();
      const std::int64_t rss_start = obs::current_rss_kb();
      bench::PipelineWorkload w;
      // A harness-timed layer from `since` to now, with its allocations
      // and block-cache traffic.
      auto add_layer = [&w, &cache](const char* name, double seconds,
                                    const obs::AllocScope& allocs,
                                    const trace::storage::BlockCache::Stats&
                                        since) {
        const trace::storage::BlockCache::Stats now = cache.stats();
        order::PassRecord rec;
        rec.name = name;
        rec.seconds = seconds;
        rec.alloc_bytes = allocs.delta().bytes;
        rec.cache_lookups = static_cast<std::int64_t>(
            now.hits + now.misses - since.hits - since.misses);
        rec.cache_misses = static_cast<std::int64_t>(now.misses - since.misses);
        rec.ran = true;
        w.passes.push_back(std::move(rec));
      };
      const obs::AllocScope allocs;
      util::Stopwatch sw;

      apps::LuleshConfig cfg;
      cfg.nx = cfg.ny = cfg.nz = 10;
      cfg.num_pes = 8;
      cfg.iterations = 40;
      trace::Trace t = apps::run_lulesh_charm(cfg);
      add_layer("sim/lulesh", sw.seconds(), allocs, {});
      {
        const obs::AllocScope sweep_allocs;
        const trace::storage::BlockCache::Stats since = cache.stats();
        util::Stopwatch sweep_sw;
        benchmark::DoNotOptimize(
            trace::storage::trace_structure_hash(t));  // full column sweep
        add_layer("trace/structure_hash", sweep_sw.seconds(), sweep_allocs,
                  since);
      }
      order::OrderContext ctx(t, order::Options::charm());
      order::run_partition_pipeline(ctx, nullptr, &w.passes);
      order::run_stepping_pipeline(ctx, &w.passes);
      benchmark::DoNotOptimize(ctx.structure.max_step);

      w.name = std::string("lulesh-large/storage=") + c.name;
      w.events = t.num_events();
      w.phases = ctx.structure.num_phases();
      w.threads = 1;
      w.total_seconds = sw.seconds();
      // Workload-attributed growth, not the process high-water mark:
      // reset_peak_rss() above rebased VmHWM to the RSS at entry.
      const std::int64_t grown = obs::peak_rss_kb() - rss_start;
      w.peak_rss_kb = grown > 0 ? grown : 0;
      w.storage = c.name;
      const trace::storage::BlockCache::Stats stats = cache.stats();
      w.cache_hits = static_cast<std::int64_t>(stats.hits);
      w.cache_misses = static_cast<std::int64_t>(stats.misses);
      add_layer("storage/lifecycle", w.total_seconds, allocs, {});
      traj.add_workload(std::move(w));
    }
  }
  // The `.lstrace` ingest path end to end (ROADMAP "One ingest pass"):
  // LULESH 10^3 x 40 (~1M events) written with save_trace, read back
  // with load_trace, extracted and run through the efficiency suite.
  // The write and read layers are the spans the library opens
  // (`trace/write`, `trace/read` and its children `trace/parse`,
  // `trace/repair`, `trace/freeze`), folded from the tracer; the
  // extraction records every order pass and the suite is a pseudo-pass.
  {
    const std::string path =
        (std::filesystem::temp_directory_path() /
         "micro_pipeline_lstrace_1m.lstrace")
            .string();
    bench::PipelineWorkload w;
    {
      apps::LuleshConfig cfg;
      cfg.nx = cfg.ny = cfg.nz = 10;
      cfg.num_pes = 8;
      cfg.iterations = 40;
      const trace::Trace sim = apps::run_lulesh_charm(cfg);
      obs::PipelineTracer::global().reset();
      if (!trace::save_trace(sim, path)) {
        std::fprintf(stderr, "micro_pipeline: cannot write %s\n",
                     path.c_str());
        std::abort();
      }
    }
    obs::reset_peak_rss();
    const std::int64_t rss_start = obs::current_rss_kb();
    util::Stopwatch sw;
    const trace::Trace t = trace::load_trace(path);
    std::filesystem::remove(path);
    order::OrderContext ctx(t, order::Options::charm());
    order::run_partition_pipeline(ctx, nullptr, &w.passes);
    order::run_stepping_pipeline(ctx, &w.passes);
    {
      const obs::AllocScope suite_allocs;
      util::Stopwatch suite_sw;
      const metrics::WindowSet ws =
          metrics::WindowSet::phases(t, ctx.structure.phases);
      const metrics::EfficiencySuite suite =
          metrics::efficiency_suite(t, ws, 1);
      benchmark::DoNotOptimize(suite.parallel.summary.mean);
      order::PassRecord rec;
      rec.name = "metrics/efficiency_suite";
      rec.seconds = suite_sw.seconds();
      rec.alloc_bytes = suite_allocs.delta().bytes;
      rec.ran = true;
      w.passes.push_back(std::move(rec));
    }
    w.total_seconds = sw.seconds();  // read, extraction and suite
    const std::int64_t grown = obs::peak_rss_kb() - rss_start;
    w.peak_rss_kb = grown > 0 ? grown : 0;
    std::vector<order::PassRecord> io_layers;
    for (const obs::Span& s : obs::PipelineTracer::global().snapshot()) {
      if (s.open ||
          (s.name != "trace/write" && s.name != "trace/read" &&
           s.name != "trace/parse" && s.name != "trace/repair" &&
           s.name != "trace/freeze"))
        continue;
      order::PassRecord rec;
      rec.name = s.name;
      rec.seconds = static_cast<double>(s.end_ns - s.begin_ns) * 1e-9;
      rec.alloc_bytes = s.alloc_bytes;
      rec.ran = true;
      io_layers.push_back(std::move(rec));
    }
    w.passes.insert(w.passes.begin(), io_layers.begin(), io_layers.end());
    w.name = "e2e/lstrace-1m";
    w.events = t.num_events();
    w.phases = ctx.structure.num_phases();
    w.threads = 1;
    traj.add_workload(std::move(w));
  }
  // Checksum kernel probe: CRC32C over a 32 MiB buffer, recorded as the
  // `trace/storage/checksum` pseudo-pass. Every v2 `.lsblk` block write
  // and verified read pays this kernel, so a regression here — say the
  // hardware dispatch silently falling back to the table path — taxes
  // the entire blocked backend; the gate diffs it like any manager
  // pass (tools/bench_gate.py --self-test proves a 2x slip fails).
  {
    std::vector<char> buf(32u << 20);
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (std::size_t i = 0; i < buf.size(); ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      buf[i] = static_cast<char>(x);
    }
    std::uint32_t sum = util::crc32c(buf.data(), buf.size());  // warm
    double best = 0;
    for (int rep = 0; rep < 5; ++rep) {
      util::Stopwatch sw;
      sum ^= util::crc32c(buf.data(), buf.size());
      const double s = sw.seconds();
      if (rep == 0 || s < best) best = s;
    }
    benchmark::DoNotOptimize(sum);
    bench::PipelineWorkload w;
    w.name = "crc32c/32mb";
    w.total_seconds = best;
    order::PassRecord rec;
    rec.name = "trace/storage/checksum";
    rec.seconds = best;
    rec.threads = 1;
    rec.ran = true;
    w.passes.push_back(std::move(rec));
    traj.add_workload(std::move(w));
  }
  traj.save(/*path=*/{}, /*fallback=*/"BENCH_pipeline.json");
}

}  // namespace

int main(int argc, char** argv) {
  register_threaded_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  emit_pipeline_trajectory();
  return 0;
}
