/// \file trace_inspect.cpp
/// Command-line trace utility: generate a trace from any built-in proxy
/// app, save it as .lstrace, reload, validate, and summarize — the
/// round-trip a user would run on externally produced traces.
///
///   ./trace_inspect --app=jacobi --out=/tmp/jacobi.lstrace
///   ./trace_inspect --in=/tmp/jacobi.lstrace
///   ./trace_inspect --in=/tmp/damaged.lstrace --recover
///
/// --recover loads a damaged .lstrace in best-effort mode (see
/// docs/ROBUSTNESS.md): garbled lines are skipped, truncation tolerated,
/// and the salvage repaired; the recovery report is printed and the
/// analysis runs on whatever survived.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>

#include "apps/jacobi2d.hpp"
#include "apps/lassen.hpp"
#include "apps/lulesh.hpp"
#include "apps/mergetree.hpp"
#include "apps/nasbt.hpp"
#include "apps/pdes.hpp"
#include "metrics/concurrency.hpp"
#include "metrics/efficiency.hpp"
#include "order/io.hpp"
#include "order/validate.hpp"
#include "order/stats.hpp"
#include "order/stepping.hpp"
#include "trace/io.hpp"
#include "trace/validate.hpp"
#include "util/flags.hpp"
#include "util/obs_flags.hpp"
#include "util/table.hpp"
#include "vis/html.hpp"

namespace {

/// grid > 0 overrides the app's chare/rank grid (jacobi & lassen:
/// chares per side; lulesh: nx=ny=nz; nasbt: rank grid); iterations > 0
/// overrides the iteration/window count. 0 keeps the app default.
logstruct::trace::Trace generate(const std::string& app, std::uint64_t seed,
                                 std::int32_t grid,
                                 std::int32_t iterations) {
  using namespace logstruct::apps;
  if (app == "jacobi") {
    Jacobi2DConfig cfg;
    cfg.seed = seed;
    if (grid > 0) cfg.chares_x = cfg.chares_y = grid;
    if (iterations > 0) cfg.iterations = iterations;
    return run_jacobi2d(cfg);
  }
  if (app == "lulesh") {
    LuleshConfig cfg;
    cfg.seed = seed;
    if (grid > 0) cfg.nx = cfg.ny = cfg.nz = grid;
    if (iterations > 0) cfg.iterations = iterations;
    return run_lulesh_charm(cfg);
  }
  if (app == "lulesh-mpi") {
    LuleshConfig cfg;
    cfg.seed = seed;
    if (grid > 0) cfg.nx = cfg.ny = cfg.nz = grid;
    if (iterations > 0) cfg.iterations = iterations;
    return run_lulesh_mpi(cfg);
  }
  if (app == "lassen") {
    LassenConfig cfg;
    cfg.seed = seed;
    if (grid > 0) cfg.chares_x = cfg.chares_y = grid;
    if (iterations > 0) cfg.iterations = iterations;
    return run_lassen_charm(cfg);
  }
  if (app == "lassen-mpi") {
    LassenConfig cfg;
    cfg.seed = seed;
    if (grid > 0) cfg.chares_x = cfg.chares_y = grid;
    if (iterations > 0) cfg.iterations = iterations;
    return run_lassen_mpi(cfg);
  }
  if (app == "pdes") {
    PdesConfig cfg;
    cfg.seed = seed;
    if (grid > 0) cfg.num_chares = grid;
    if (iterations > 0) cfg.windows = iterations;
    return run_pdes(cfg);
  }
  if (app == "mergetree") {
    MergeTreeConfig cfg;
    cfg.num_ranks = 64;
    cfg.seed = seed;
    if (grid > 0) cfg.num_ranks = grid;
    return run_mergetree_mpi(cfg);
  }
  if (app == "nasbt") {
    NasBtConfig cfg;
    cfg.seed = seed;
    if (grid > 0) cfg.grid = grid;
    if (iterations > 0) cfg.iterations = iterations;
    return run_nasbt_mpi(cfg);
  }
  std::fprintf(stderr,
               "unknown app '%s' (jacobi, lulesh, lulesh-mpi, lassen, "
               "lassen-mpi, pdes, mergetree, nasbt)\n",
               app.c_str());
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace logstruct;

  util::Flags flags;
  flags.define_string("app", "jacobi", "built-in app to trace");
  flags.define_string("in", "", "load this .lstrace instead of simulating");
  flags.define_bool("recover", false,
                    "tolerate a malformed --in file: skip garbled lines, "
                    "repair the salvage, and report what was fixed");
  flags.define_string("report-out", "",
                      "write the recovery report (JSON) here");
  flags.define_string("out", "", "save the trace here");
  flags.define_int("seed", 1, "simulation seed");
  flags.define_int("grid", 0,
                   "override the app's chare/rank grid size (0 = default)");
  flags.define_int("iterations", 0,
                   "override the app's iteration count (0 = default)");
  flags.define_bool("mpi", false, "analyze with the MPI-model options");
  flags.define_string("html", "",
                      "write an interactive structure viewer here");
  flags.define_string("structure-out", "",
                      "archive the computed structure (.lstruct) here");
  flags.define_string("structure-in", "",
                      "load an archived structure instead of recomputing");
  util::define_obs_flags(flags);
  if (!flags.parse(argc, argv)) return 1;
  util::apply_obs_flags(flags);

  trace::Trace t;
  const std::string in = flags.get_string("in");
  std::string app = flags.get_string("app");
  trace::RecoveryReport report;
  if (!in.empty() && flags.get_bool("recover")) {
    t = trace::load_trace(in, trace::ReadOptions::recovering(), report);
    report.export_counters();
    if (report.empty()) {
      std::printf("loaded %s (clean)\n", in.c_str());
    } else {
      std::printf("loaded %s with recovery:\n%s", in.c_str(),
                  report.to_string().c_str());
    }
    const std::string rout = flags.get_string("report-out");
    if (!rout.empty()) {
      std::ofstream rf(rout);
      if (rf) rf << report.to_json() << '\n';
      if (!rf) {
        std::fprintf(stderr, "failed to write %s\n", rout.c_str());
        return 3;
      }
      std::printf("wrote recovery report: %s\n", rout.c_str());
    }
    if (report.fatal()) {
      std::fprintf(stderr, "nothing salvageable in %s\n", in.c_str());
      return 2;
    }
  } else if (!in.empty()) {
    try {
      t = trace::load_trace(in);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "failed to load %s: %s (try --recover)\n",
                   in.c_str(), e.what());
      return 2;
    }
    std::printf("loaded %s\n", in.c_str());
  } else {
    t = generate(app, static_cast<std::uint64_t>(flags.get_int("seed")),
                 static_cast<std::int32_t>(flags.get_int("grid")),
                 static_cast<std::int32_t>(flags.get_int("iterations")));
    std::printf("simulated %s\n", app.c_str());
  }

  auto problems = trace::validate(t);
  if (!problems.empty()) {
    std::printf("trace has %zu problems:\n", problems.size());
    for (std::size_t i = 0; i < problems.size() && i < 10; ++i)
      std::printf("  %s\n", problems[i].c_str());
    return 2;
  }
  std::puts("trace validates cleanly");

  bool mpi_mode = flags.get_bool("mpi") || app.find("mpi") !=
                                               std::string::npos ||
                  app == "mergetree" || app == "nasbt";
  order::Options opts =
      mpi_mode ? order::Options::mpi() : order::Options::charm();
  order::LogicalStructure ls;
  const std::string sin = flags.get_string("structure-in");
  if (!sin.empty()) {
    ls = order::load_structure(sin, t);
    auto sp = order::validate_structure(t, ls);
    if (!sp.empty()) {
      std::fprintf(stderr, "archived structure invalid: %s\n",
                   sp.front().c_str());
      return 4;
    }
    std::printf("loaded structure: %s\n", sin.c_str());
  } else {
    ls = order::extract_structure(t, opts);
  }
  order::StructureStats stats = order::compute_stats(t, ls);

  util::TablePrinter table({"property", "value"});
  table.row().add("events").add(static_cast<std::int64_t>(t.num_events()));
  table.row().add("serial blocks").add(
      static_cast<std::int64_t>(t.num_blocks()));
  table.row().add("chares").add(static_cast<std::int64_t>(t.num_chares()));
  table.row().add("processors").add(
      static_cast<std::int64_t>(t.num_procs()));
  table.row().add("trace end (us)").add(t.end_time() / 1000.0);
  table.row().add("phases").add(static_cast<std::int64_t>(stats.num_phases));
  table.row().add("  application").add(
      static_cast<std::int64_t>(stats.app_phases));
  table.row().add("  runtime").add(
      static_cast<std::int64_t>(stats.runtime_phases));
  table.row().add("global steps").add(
      static_cast<std::int64_t>(stats.width));
  table.row().add("avg events/occupied step").add(stats.avg_occupancy);
  table.print();

  const std::string sout = flags.get_string("structure-out");
  if (!sout.empty()) {
    if (order::save_structure(ls, sout))
      std::printf("saved structure: %s\n", sout.c_str());
  }

  const std::string html = flags.get_string("html");
  if (!html.empty()) {
    vis::HtmlOptions hopts;
    hopts.title = app + " logical structure";
    if (vis::save_html(t, ls, html, hopts))
      std::printf("wrote viewer: %s\n", html.c_str());
  }

  const std::string out = flags.get_string("out");
  if (!out.empty()) {
    if (!trace::save_trace(t, out)) {
      std::fprintf(stderr, "failed to write %s\n", out.c_str());
      return 3;
    }
    std::printf("saved %s\n", out.c_str());
  }
  if (!metrics::write_efficiency_report(flags, t, ls, argv[0])) return 3;
  if (!metrics::write_concurrency_report(flags, t, ls, argv[0])) return 3;
  util::finish_obs(flags, argv[0]);
  return 0;
}
