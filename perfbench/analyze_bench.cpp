/// \file analyze_bench.cpp
/// Worker of the analyzer benchmark (perfbench/run.py drives it; see
/// perfbench/README.md). One process does one of two jobs:
///
///   analyze_bench --mode=prepare --workload=W --seed=S --dir=D
///     Simulates the workload's trace from the seed, extracts the
///     reference structure on the mem backend and turns the generated
///     trace into the workload's input file. Writes D/ref.bin and the
///     input and prints one JSON line. Then it stays up: for each
///     line read on stdin it times one more set-up (the same calls into
///     fresh files) and prints its time as a JSON line; it cleans up and
///     exits when stdin closes.
///
///   analyze_bench --mode=analyze --workload=W --dir=D [--traced]
///     Runs one analysis of the input trace: open/read the file ->
///     order::extract_structure -> the paper's metric kernels ->
///     efficiency_suite over phase windows. Checks every result against
///     D/ref.bin and prints one JSON line. With --traced it records one
///     span per public call (plus getrusage, block-cache and allocation
///     deltas at the same boundaries), writes them to --spans, and adds
///     the per-layer figures to its JSON line.
///
/// Every run is pinned to threads=1 and to an explicit storage
/// configuration; the LOGSTRUCT_* environment knobs that would change
/// the backend, inject I/O faults or add checking passes are cleared
/// before the library reads them.

#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/lulesh.hpp"
#include "metrics/critical_path.hpp"
#include "metrics/duration.hpp"
#include "metrics/efficiency.hpp"
#include "metrics/idle.hpp"
#include "metrics/imbalance.hpp"
#include "metrics/lateness.hpp"
#include "obs/memstats.hpp"
#include "obs/registry.hpp"
#include "order/options.hpp"
#include "order/phases.hpp"
#include "order/stepping.hpp"
#include "order/validate.hpp"
#include "trace/io.hpp"
#include "trace/storage/block_cache.hpp"
#include "trace/storage/blocked_trace.hpp"
#include "trace/storage/options.hpp"
#include "util/flags.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace logstruct;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Workloads

enum class Format { Lstrace, Lsblk };

struct Workload {
  const char* name;
  Format format;
  std::int32_t grid;        ///< LULESH chares per dimension
  std::int32_t iterations;  ///< LULESH time steps
};

constexpr Workload kWorkloads[] = {
    {"lstrace-lulesh-250k", Format::Lstrace, 10, 10},
    {"lsblk-lulesh-tightcache", Format::Lsblk, 6, 20},
};

/// Block-cache budget of the tight-cache workload. BlockCache splits its
/// budget over 16 shards and holds whole 256 KiB blocks, so the budget
/// acts in steps of 4 MiB. On the 8.5 MB input: >= 12 MiB keeps 3 blocks
/// a shard (99.99% hits, ~0.7 s), 8-12 MiB keeps 2 (97.98%, 1.3-1.5 s,
/// half of it kernel time), below 8 MiB 1 (83-90%, 6-7 s). 10 MiB sits
/// mid-band in the thrash regime, away from both cliffs. README.md
/// records the sweep.
constexpr std::uint64_t kTightCacheBytes = 10ull << 20;
constexpr std::uint32_t kBlockBytes = 256u << 10;

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

/// The simulator is the benchmark's input generator: it runs in the
/// prepare process only and never inside a timed analysis.
trace::Trace generate(const Workload& w, std::uint64_t seed) {
  apps::LuleshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = w.grid;
  cfg.num_pes = 8;
  cfg.iterations = w.iterations;
  cfg.seed = seed;
  return apps::run_lulesh_charm(cfg);
}

/// Where prepare leaves the inputs the analyses read.
std::string input_dir(const std::string& dir) { return dir + "/input"; }
std::string lstrace_path(const std::string& dir) {
  return dir + "/trace.lstrace";
}
std::string lsblk_path(const std::string& dir) { return dir + "/trace.lsblk"; }

// ---------------------------------------------------------------------------
// Reference structure: trace hash, event count and per-event (phase, step)

struct Reference {
  std::uint64_t hash = 0;
  std::int32_t events = 0;
  std::vector<std::int32_t> phase;
  std::vector<std::int32_t> step;
};

Reference fingerprint(const trace::Trace& t, const order::LogicalStructure& ls) {
  Reference r;
  r.hash = trace::storage::trace_structure_hash(t);
  r.events = t.num_events();
  r.phase = ls.phases.phase_of_event;
  r.step = ls.global_step;
  return r;
}

template <class T>
void put(std::ofstream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}
template <class T>
void get(std::ifstream& in, T& v) {
  in.read(reinterpret_cast<char*>(&v), sizeof v);
}

void write_reference(const std::string& path, const Reference& r) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  put(out, r.hash);
  put(out, r.events);
  out.write(reinterpret_cast<const char*>(r.phase.data()),
            static_cast<std::streamsize>(r.phase.size() * 4));
  out.write(reinterpret_cast<const char*>(r.step.data()),
            static_cast<std::streamsize>(r.step.size() * 4));
  if (!out) throw std::runtime_error("cannot write " + path);
}

Reference read_reference(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  Reference r;
  get(in, r.hash);
  get(in, r.events);
  if (!in || r.events < 0) throw std::runtime_error("bad " + path);
  r.phase.resize(static_cast<std::size_t>(r.events));
  r.step.resize(static_cast<std::size_t>(r.events));
  in.read(reinterpret_cast<char*>(r.phase.data()),
          static_cast<std::streamsize>(r.phase.size() * 4));
  in.read(reinterpret_cast<char*>(r.step.data()),
          static_cast<std::streamsize>(r.step.size() * 4));
  if (!in) throw std::runtime_error("truncated " + path);
  return r;
}

// ---------------------------------------------------------------------------
// Probes: everything read at a span boundary

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Probe {
  double wall = 0;
  double user = 0;
  double sys = 0;
  std::int64_t minor_faults = 0;
  std::int64_t alloc_bytes = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t cache_evictions = 0;
  std::int64_t io_retries = 0;

  static Probe take() {
    static obs::Counter& hits =
        obs::Registry::global().counter("trace/storage/cache/hits");
    static obs::Counter& misses =
        obs::Registry::global().counter("trace/storage/cache/misses");
    static obs::Counter& evictions =
        obs::Registry::global().counter("trace/storage/cache/evictions");
    static obs::Counter& retries =
        obs::Registry::global().counter("trace/storage/io/retries");
    Probe p;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    p.user = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    p.sys = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    p.minor_faults = ru.ru_minflt;
    p.alloc_bytes = obs::thread_allocs().bytes;
    p.cache_hits = hits.value();
    p.cache_misses = misses.value();
    p.cache_evictions = evictions.value();
    p.io_retries = retries.value();
    p.wall = now_s();  // last, so the probe's own cost lands before it
    return p;
  }

  Probe operator-(const Probe& o) const {
    return {wall - o.wall,
            user - o.user,
            sys - o.sys,
            minor_faults - o.minor_faults,
            alloc_bytes - o.alloc_bytes,
            cache_hits - o.cache_hits,
            cache_misses - o.cache_misses,
            cache_evictions - o.cache_evictions,
            io_retries - o.io_retries};
  }
  Probe& operator+=(const Probe& o) {
    wall += o.wall;
    user += o.user;
    sys += o.sys;
    minor_faults += o.minor_faults;
    alloc_bytes += o.alloc_bytes;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    cache_evictions += o.cache_evictions;
    io_retries += o.io_retries;
    return *this;
  }
};

/// In-memory span recorder for the traced run. A null Tracer* means an
/// untraced run: no span is kept and no probe is read between the two
/// that bound the analysis.
class Tracer {
 public:
  struct Span {
    int id = 0;
    int parent = -1;
    std::string name;
    Probe begin;
    Probe end;
  };

  int open(const char* name) {
    Span s;
    s.id = static_cast<int>(spans_.size());
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.name = name;
    stack_.push_back(s.id);
    spans_.push_back(std::move(s));
    spans_.back().begin = Probe::take();
    return spans_.back().id;
  }

  void close(int id) {
    const Probe end = Probe::take();
    spans_[static_cast<std::size_t>(id)].end = end;
    stack_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

template <class F>
auto in_span(Tracer* tracer, const char* name, F&& f) {
  if (tracer == nullptr) return f();
  const int id = tracer->open(name);
  auto result = f();
  tracer->close(id);
  return result;
}

// ---------------------------------------------------------------------------
// Storage configuration

trace::storage::StorageOptions storage_options(const Workload& w,
                                               const std::string& dir) {
  trace::storage::StorageOptions opts;
  opts.kind = trace::storage::BackendKind::Mem;
  if (w.format == Format::Lsblk) opts.cache_bytes = kTightCacheBytes;
  opts.block_bytes = kBlockBytes;
  opts.dir = dir;
  return opts;
}

void pin_environment() {
  for (const char* var :
       {"LOGSTRUCT_STORAGE", "LOGSTRUCT_CACHE_MB", "LOGSTRUCT_STORAGE_DIR",
        "LOGSTRUCT_IO_FAULTS", "LOGSTRUCT_CHECK_PASSES",
        "LOGSTRUCT_CHECK_CAUSALITY"})
    unsetenv(var);
  util::set_default_parallelism(1);
#if defined(__GLIBC__)
  // Pin glibc's mmap threshold (as bench/micro_pipeline does) so whether
  // large vectors come from mmap or the arena does not depend on the
  // free history; peak RSS then repeats across runs.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
#endif
}

order::Options analysis_options() {
  order::Options opts = order::Options::charm();
  opts.threads = 1;
  return opts;
}

/// Write back every dirty page of the work directory's filesystem, so a
/// timed write starts from the same clean state whatever ran before it
/// (earlier set-up repetitions, the previous run's deleted inputs).
void settle(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw std::runtime_error("cannot open " + dir);
  const int rc = ::syncfs(fd);
  ::close(fd);
  if (rc != 0) throw std::runtime_error("syncfs failed on " + dir);
}

// ---------------------------------------------------------------------------
// prepare

struct SetupTime {
  double write = 0;    ///< save_trace
  double convert = 0;  ///< .lstrace -> .lsblk (lsblk only)
};

/// The timed set-up: the program calls that turn the generated trace
/// into the workload's input, written as fresh files into `out`, as a
/// user writing a new trace does. Overwriting or deleting files between
/// repetitions (the filesystem discards freed blocks) made them vary by
/// up to 2x, so the caller deletes nothing until all are done. Each timed
/// write starts and ends on a settled filesystem.
SetupTime set_up(const Workload& w, const trace::Trace& t,
                 const std::string& dir, const std::string& out) {
  fs::create_directories(out);
  settle(dir);
  SetupTime s;
  double t0 = now_s();
  const bool ok = trace::save_trace(t, lstrace_path(out));
  s.write = now_s() - t0;
  if (!ok) throw std::runtime_error("writing the input failed");
  if (w.format == Format::Lsblk) {
    // .lstrace -> .lsblk exactly as tools/trace_convert does it.
    settle(dir);
    t0 = now_s();
    const trace::Trace loaded = trace::load_trace(lstrace_path(out));
    trace::storage::write_blocked_file(loaded, lsblk_path(out), kBlockBytes);
    s.convert = now_s() - t0;
  }
  // Written back here, not during the analysis that runs next.
  settle(dir);
  return s;
}

int prepare(const Workload& w, std::uint64_t seed, const std::string& dir) {
  trace::storage::set_default_options(storage_options(w, dir));
  const double t0 = now_s();
  const trace::Trace t = generate(w, seed);
  const double generate_s = now_s() - t0;

  // The reference structure from a mem-backend extraction, outside every
  // timed region.
  write_reference(dir + "/ref.bin",
                  fingerprint(t, order::extract_structure(t, analysis_options())));

  // The input the analyses read comes from one untimed set-up.
  const std::string in = input_dir(dir);
  set_up(w, t, dir, in);
  if (w.format == Format::Lsblk) fs::remove(lstrace_path(in));
  settle(dir);
  std::printf("{\"events\": %lld, \"generate_s\": %.9g}\n",
              static_cast<long long>(t.num_events()), generate_s);
  std::fflush(stdout);

  // Then one timed set-up per line on stdin, until it closes. run.py
  // asks for one after each analysis, so the set-up samples span the
  // same stretch of time as the analysis samples.
  int reps = 0;
  for (std::string line; std::getline(std::cin, line); ++reps) {
    const SetupTime s =
        set_up(w, t, dir, dir + "/rep" + std::to_string(reps));
    std::printf("{\"setup_s\": %.9g, \"write_s\": %.9g, \"convert_s\": %.9g}\n",
                w.format == Format::Lsblk ? s.convert : s.write, s.write,
                s.convert);
    std::fflush(stdout);
  }
  for (int rep = 0; rep < reps; ++rep)
    fs::remove_all(dir + "/rep" + std::to_string(rep));
  return 0;
}

// ---------------------------------------------------------------------------
// analyze

/// Everything one analysis of one trace produces that is kept past the
/// timed region.
struct Outcome {
  double seconds = 0;
  double peak_rss_mb = 0;
  Probe delta;  ///< counters over the analysis (cache lookups etc.)
  std::vector<std::string> problems;
  // Work counts and per-pass timings (traced runs).
  order::PipelineTimings timings;
  std::int64_t merges = 0;
  std::int64_t phases = 0;
  std::int64_t steps = 0;
};

/// One analysis: open/read -> structure -> metrics. Traced runs split
/// extract_structure into its two public halves to time them apart.
Outcome analyze_one(const Workload& w, const std::string& dir,
                    const Reference& ref, Tracer* tracer) {
  const order::Options opts = analysis_options();
  const std::string in = input_dir(dir);
  Outcome out;

  malloc_trim(0);
  const bool peak_reset = obs::reset_peak_rss();
  const std::int64_t rss0_kb = obs::current_rss_kb();
  const Probe start = Probe::take();
  const int root = tracer ? tracer->open("analysis") : -1;

  const trace::Trace t =
      w.format == Format::Lstrace
          ? in_span(tracer, "trace",
                    [&] { return trace::load_trace(lstrace_path(in)); })
          : in_span(tracer, "storage", [&] {
              return trace::storage::open_blocked_trace(lsblk_path(in));
            });

  order::LogicalStructure ls;
  if (tracer == nullptr) {
    ls = order::extract_structure(t, opts);
  } else {
    const int id = tracer->open("order");
    order::PhaseResult phases = in_span(tracer, "order.find_phases", [&] {
      return order::find_phases(t, opts.partition, &out.timings);
    });
    ls = in_span(tracer, "order.assign_steps", [&] {
      return order::assign_steps(t, std::move(phases), opts);
    });
    tracer->close(id);
  }

  const int metrics_id = tracer ? tracer->open("metrics") : -1;
  const metrics::IdleExperienced idle =
      in_span(tracer, "metrics.idle", [&] { return metrics::idle_experienced(t); });
  const metrics::DifferentialDuration diffdur = in_span(
      tracer, "metrics.diffdur",
      [&] { return metrics::differential_duration(t, ls, 1); });
  const metrics::Imbalance imbalance = in_span(
      tracer, "metrics.imbalance", [&] { return metrics::imbalance(t, ls, 1); });
  const metrics::Lateness lateness = in_span(
      tracer, "metrics.lateness", [&] { return metrics::lateness(t, ls, false, 1); });
  const metrics::CriticalPath cpath = in_span(
      tracer, "metrics.critical_path",
      [&] { return metrics::critical_path(t, ls, 1); });
  const metrics::EfficiencySuite suite =
      in_span(tracer, "metrics.efficiency", [&] {
        const metrics::WindowSet windows =
            metrics::WindowSet::phases(t, ls.phases);
        return metrics::efficiency_suite(t, windows, 1);
      });
  if (tracer) {
    tracer->close(metrics_id);
    tracer->close(root);
  }
  const Probe end = Probe::take();
  out.seconds = end.wall - start.wall;
  out.delta = end - start;
  out.peak_rss_mb =
      static_cast<double>(obs::peak_rss_kb() - rss0_kb) / 1024.0;

  // Output check, outside the timed region.
  out.problems = order::validate_structure(t, ls);
  if (!peak_reset)
    out.problems.push_back("cannot reset the peak RSS, so peak_rss_mb "
                           "would be cumulative");
  if (t.num_events() != ref.events)
    out.problems.push_back("event count differs from the generated trace");
  if (trace::storage::trace_structure_hash(t) != ref.hash)
    out.problems.push_back("trace hash differs from the generated trace");
  if (ls.phases.phase_of_event != ref.phase || ls.global_step != ref.step)
    out.problems.push_back("structure fingerprint differs from reference");
  const std::size_t ne = static_cast<std::size_t>(t.num_events());
  if (idle.per_event.size() != ne || diffdur.per_event.size() != ne ||
      imbalance.per_event.size() != ne || lateness.per_event.size() != ne ||
      cpath.events.empty() ||
      suite.num_windows() != ls.num_phases())
    out.problems.push_back("a metric kernel returned a malformed result");

  out.merges = ls.phases.merges;
  out.phases = ls.num_phases();
  out.steps = ls.max_step;
  return out;
}

/// JSON string literal body: escape quotes and backslashes.
std::string escaped(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c < 0x20 ? ' ' : c);
  }
  return out;
}

void write_spans(const std::string& path, const std::string& run_id,
                 const Tracer& tracer, double epoch) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"schema\": \"logstruct-perfbench-spans/v1\", \"run_id\": \""
      << escaped(run_id) << "\", \"spans\": [\n";
  const auto& spans = tracer.spans();
  char buf[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    const Probe d = s.end - s.begin;
    std::snprintf(buf, sizeof buf,
                  "  {\"run_id\": \"%s\", \"id\": %d, \"parent\": %d, "
                  "\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                  "\"user_s\": %.6f, \"sys_s\": %.6f, \"minor_faults\": %lld, "
                  "\"alloc_bytes\": %lld, \"cache_hits\": %lld, "
                  "\"cache_misses\": %lld}%s\n",
                  escaped(run_id).c_str(), s.id, s.parent,
                  escaped(s.name).c_str(), s.begin.wall - epoch,
                  s.end.wall - epoch, d.user, d.sys,
                  static_cast<long long>(d.minor_faults),
                  static_cast<long long>(d.alloc_bytes),
                  static_cast<long long>(d.cache_hits),
                  static_cast<long long>(d.cache_misses),
                  i + 1 < spans.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// Per-layer figures from the recorded spans. Layers are the direct
/// children of each "analysis" root; a layer's self time is its span
/// minus the part its own children cover.
void print_layers(const Tracer& tracer, const order::PipelineTimings& tm,
                  double read_bytes) {
  const auto& spans = tracer.spans();
  auto dur = [](const Tracer::Span& s) { return s.end.wall - s.begin.wall; };
  std::vector<double> child_time(spans.size(), 0.0);
  for (const Tracer::Span& s : spans)
    if (s.parent >= 0) child_time[static_cast<std::size_t>(s.parent)] += dur(s);

  struct Sum {
    Probe total;
    double self = 0;
  };
  std::map<std::string, Sum> by_name;  // spans absent from a run read 0
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Sum& s = by_name[spans[i].name];
    s.total += spans[i].end - spans[i].begin;
    s.self += dur(spans[i]) - child_time[i];
  }
  auto sum_for = [&by_name](const char* name) -> const Sum& {
    return by_name[name];
  };

  const Sum& root = sum_for("analysis");
  double covered = 0;
  for (const char* layer : {"trace", "storage", "order", "metrics"})
    covered += sum_for(layer).total.wall;

  const double mb = 1.0 / (1024.0 * 1024.0);
  const Probe& rd = sum_for("trace").total;
  const Probe& st = sum_for("storage").total;
  const Probe& od = sum_for("order").total;
  const Probe& mt = sum_for("metrics").total;
  const std::int64_t lookups =
      st.cache_hits + st.cache_misses + od.cache_hits + od.cache_misses +
      mt.cache_hits + mt.cache_misses;
  const std::int64_t hits = st.cache_hits + od.cache_hits + mt.cache_hits;

  std::printf("{\"layers\": {");
  bool first = true;
  auto emit = [&first](const std::string& name, double v) {
    std::printf("%s\"%s\": %.9g", first ? "" : ", ", name.c_str(), v);
    first = false;
  };
  emit("trace.read_s", rd.wall);
  emit("trace.read_mb_per_s", rd.wall > 0 ? read_bytes * mb / rd.wall : 0.0);
  emit("trace.read_alloc_mb", static_cast<double>(rd.alloc_bytes) * mb);
  emit("storage.open_s", st.wall);
  emit("storage.cache_lookups", static_cast<double>(lookups));
  emit("storage.cache_misses", static_cast<double>(lookups - hits));
  emit("storage.cache_hit_ratio",
       lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                   : 0.0);
  emit("storage.cache_evictions",
       static_cast<double>(st.cache_evictions + od.cache_evictions +
                           mt.cache_evictions));
  emit("storage.io_retries",
       static_cast<double>(rd.io_retries + st.io_retries + od.io_retries +
                           mt.io_retries));
  emit("order.find_phases_s", sum_for("order.find_phases").total.wall);
  emit("order.assign_steps_s", sum_for("order.assign_steps").total.wall);
  emit("order.initial_s", tm.initial);
  emit("order.dependency_merge_s", tm.dependency_merge);
  emit("order.repair_s", tm.repair);
  emit("order.neighbor_s", tm.neighbor);
  emit("order.infer_sources_s", tm.infer_sources);
  emit("order.leap_property_s", tm.leap_property);
  emit("order.chare_paths_s", tm.chare_paths);
  emit("order.finalize_s", tm.finalize);
  emit("order.alloc_mb", static_cast<double>(od.alloc_bytes) * mb);
  emit("order.cache_misses", static_cast<double>(od.cache_misses));
  emit("metrics.idle_s", sum_for("metrics.idle").total.wall);
  emit("metrics.diffdur_s", sum_for("metrics.diffdur").total.wall);
  emit("metrics.imbalance_s", sum_for("metrics.imbalance").total.wall);
  emit("metrics.lateness_s", sum_for("metrics.lateness").total.wall);
  emit("metrics.critical_path_s",
       sum_for("metrics.critical_path").total.wall);
  emit("metrics.efficiency_s", sum_for("metrics.efficiency").total.wall);
  emit("metrics.alloc_mb", static_cast<double>(mt.alloc_bytes) * mb);
  emit("metrics.cache_misses", static_cast<double>(mt.cache_misses));
  for (const char* layer : {"trace", "storage", "order", "metrics"}) {
    const Probe& p = sum_for(layer).total;
    const std::string l(layer);
    emit(l + ".user_s", p.user);
    emit(l + ".sys_s", p.sys);
    emit(l + ".minor_faults", static_cast<double>(p.minor_faults));
  }
  for (const char* layer : {"analysis", "trace", "storage", "order", "metrics"})
    emit(std::string(layer) + ".self_s", sum_for(layer).self);
  emit("obs.span_coverage", root.total.wall > 0 ? covered / root.total.wall : 0.0);
  std::printf("}}\n");
}

int analyze(const Workload& w, const std::string& dir, bool traced,
            const std::string& spans_path, const std::string& run_id,
            bool perturb) {
  trace::storage::set_default_options(storage_options(w, dir));
  Reference ref = read_reference(dir + "/ref.bin");
  // Negative check: a reference the analysis cannot match.
  if (perturb && !ref.step.empty()) ref.step[0] += 1;
  if (trace::storage::BlockCache::global().stats().resident_bytes != 0)
    throw std::runtime_error("block cache is not cold");

  Tracer tracer;
  const double epoch = now_s();
  const Outcome o = analyze_one(w, dir, ref, traced ? &tracer : nullptr);
  if (traced) {
    write_spans(spans_path, run_id, tracer, epoch);
    print_layers(tracer, o.timings,
                 w.format == Format::Lstrace
                     ? static_cast<double>(
                           fs::file_size(lstrace_path(input_dir(dir))))
                     : 0.0);
  }
  const std::int64_t lookups = o.delta.cache_hits + o.delta.cache_misses;
  std::printf(
      "{\"passed\": %d, \"analysis_s\": %.9g, \"peak_rss_mb\": %.9g, "
      "\"cache_budget_mb\": %.9g, \"cache_lookups\": %lld, "
      "\"cache_hit_ratio\": %.9g, \"merges\": %lld, \"phases\": %lld, "
      "\"steps\": %lld, \"problem\": \"%s\"}\n",
      o.problems.empty() ? 1 : 0, o.seconds, o.peak_rss_mb,
      w.format == Format::Lsblk
          ? static_cast<double>(kTightCacheBytes) / (1024.0 * 1024.0)
          : 0.0,
      static_cast<long long>(lookups),
      lookups > 0 ? static_cast<double>(o.delta.cache_hits) /
                        static_cast<double>(lookups)
                  : 0.0,
      static_cast<long long>(o.merges), static_cast<long long>(o.phases),
      static_cast<long long>(o.steps),
      escaped(o.problems.empty() ? "" : o.problems.front()).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  pin_environment();
  util::Flags flags;
  flags.define_string("mode", "", "prepare | analyze");
  flags.define_string("workload", "", "workload name");
  flags.define_int("seed", 1, "input seed (prepare)");
  flags.define_string("dir", "", "work directory for inputs and reference");
  flags.define_bool("traced", false, "record spans and per-layer figures");
  flags.define_string("spans", "", "span output file (analyze --traced)");
  flags.define_string("run-id", "", "run id shared by the spans");
  flags.define_bool("perturb-reference", false,
                    "corrupt the reference fingerprint (negative check)");
  if (!flags.parse(argc, argv)) return 1;

  const Workload* w = find_workload(flags.get_string("workload"));
  const std::string& dir = flags.get_string("dir");
  const std::string& mode = flags.get_string("mode");
  if (w == nullptr || dir.empty()) {
    std::fprintf(stderr, "analyze_bench: --workload and --dir are required\n");
    return 1;
  }
  try {
    if (mode == "prepare")
      return prepare(*w, static_cast<std::uint64_t>(flags.get_int("seed")),
                     dir);
    if (mode == "analyze")
      return analyze(*w, dir, flags.get_bool("traced"),
                     flags.get_string("spans"), flags.get_string("run-id"),
                     flags.get_bool("perturb-reference"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "analyze_bench: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "analyze_bench: unknown --mode '%s'\n", mode.c_str());
  return 1;
}
