/// \file efficiency_compare.cpp
/// The paper's attribution claim made runnable: the same POP efficiency
/// metrics computed over wall-clock time bins and over recovered phases,
/// side by side. A persistent hotspot chare drags one phase per
/// iteration; phase windows pin the load imbalance to exactly those
/// compute phases, while equal-width bins smear it across slices that
/// mix compute with reductions.
///
///   ./efficiency_compare [--iterations=4 --slow-chare=5 --bins=0]
///
/// Exits nonzero if the two slicings agree (identical summaries would
/// mean recovered structure adds nothing over wall-clock slicing) or if
/// the POP identities parallel = balance x comm and comm = serialization
/// x transfer fail on any window, so the ctest entry enforces both the
/// claim and the algebra. --eff-json writes both suites as a
/// logstruct-effmetrics/v1 artifact (docs/METRICS.md).

#include <cmath>
#include <cstdio>
#include <string>

#include "apps/jacobi2d.hpp"
#include "metrics/efficiency.hpp"
#include "metrics/windows.hpp"
#include "order/stepping.hpp"
#include "trace/validate.hpp"
#include "util/flags.hpp"
#include "util/obs_flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace logstruct;

  util::Flags flags;
  flags.define_int("iterations", 4, "Jacobi iterations");
  flags.define_int("seed", 1, "simulation seed");
  flags.define_int("slow-chare", 5, "persistent hotspot chare (-1 off)");
  flags.define_int("bins", 0,
                   "wall-clock bins to compare against (0 = one per "
                   "recovered phase)");
  util::define_obs_flags(flags);
  if (!flags.parse(argc, argv)) return 1;
  util::apply_obs_flags(flags);

  apps::Jacobi2DConfig cfg;
  cfg.chares_x = 4;
  cfg.chares_y = 4;
  cfg.num_pes = 8;
  cfg.iterations = static_cast<std::int32_t>(flags.get_int("iterations"));
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  cfg.slow_chare = static_cast<std::int32_t>(flags.get_int("slow-chare"));
  cfg.slow_every_iteration = cfg.slow_chare >= 0;
  cfg.slow_factor = 4.0;
  trace::Trace t = apps::run_jacobi2d(cfg);
  if (!trace::validate_cli(flags, t, "jacobi2d")) return 2;
  order::LogicalStructure ls =
      order::extract_structure(t, order::Options::charm());

  std::int64_t bins = flags.get_int("bins");
  if (bins <= 0) bins = ls.num_phases() > 0 ? ls.num_phases() : 1;
  const metrics::WindowSet bin_set =
      metrics::WindowSet::time_bins(t, static_cast<std::int32_t>(bins));
  const metrics::WindowSet phase_set = metrics::WindowSet::phases(t, ls.phases);

  const metrics::EfficiencySuite by_bin = metrics::efficiency_suite(t, bin_set);
  const metrics::EfficiencySuite by_phase =
      metrics::efficiency_suite(t, phase_set);

  auto print_suite = [](const char* title,
                        const metrics::EfficiencySuite& s) {
    std::printf("%s (%d windows, %d degraded):\n", title, s.num_windows(),
                s.degraded_windows);
    util::TablePrinter table({"window", "span (us)", "events", "parallel",
                              "load bal", "comm", "serial", "transfer"});
    for (std::int32_t w = 0; w < s.num_windows(); ++w) {
      const auto wz = static_cast<std::size_t>(w);
      std::string name = s.kind == metrics::WindowKind::Phase
                             ? "phase " + std::to_string(s.windows[wz].phase)
                             : "bin " + std::to_string(w);
      if (s.loads.events[wz] == 0) name += " (empty)";
      table.row()
          .add(name)
          .add(static_cast<double>(s.windows[wz].span()) / 1000.0, 1)
          .add(static_cast<std::int64_t>(s.loads.events[wz]))
          .add(s.parallel.per_window[wz], 3)
          .add(s.balance.per_window[wz], 3)
          .add(s.communication.per_window[wz], 3)
          .add(s.serialization.per_window[wz], 3)
          .add(s.transfer.per_window[wz], 3);
    }
    table.print();
    std::printf(
        "  worst load balance %.3f (window %d), mean parallel %.3f\n\n",
        s.balance.summary.min, s.balance.summary.min_window,
        s.parallel.summary.mean);
  };

  std::printf("jacobi2d, %d iterations, hotspot chare %d\n\n",
              cfg.iterations, cfg.slow_chare);
  print_suite("wall-clock bins", by_bin);
  print_suite("recovered phases", by_phase);

  metrics::write_efficiency_report(flags, t, ls, argv[0]);
  util::finish_obs(flags, argv[0]);

  // The POP identities must hold on every non-empty window of both
  // suites (up to clamping and one rounding step).
  for (const metrics::EfficiencySuite* s : {&by_bin, &by_phase}) {
    for (std::int32_t w = 0; w < s->num_windows(); ++w) {
      const auto wz = static_cast<std::size_t>(w);
      if (s->loads.events[wz] == 0) continue;
      // The identities hold before clamping to [0, 1]; a factor that sits
      // exactly at 1.0 may have been clamped, so only unclamped windows
      // are checkable.
      const double lb_comm =
          s->balance.per_window[wz] * s->communication.per_window[wz];
      const double ser_tr = s->serialization.per_window[wz] *
                            s->transfer.per_window[wz];
      const bool comm_clamped = s->communication.per_window[wz] >= 1.0;
      const bool ser_clamped = s->serialization.per_window[wz] >= 1.0 ||
                               s->transfer.per_window[wz] >= 1.0;
      if ((!comm_clamped &&
           std::fabs(s->parallel.per_window[wz] - lb_comm) > 1e-9) ||
          (!ser_clamped &&
           std::fabs(s->communication.per_window[wz] - ser_tr) > 1e-9)) {
        std::fprintf(stderr, "FAIL: POP identity broken in window %d\n", w);
        return 3;
      }
    }
  }

  // The claim this example exists to demonstrate: slicing by the
  // recovered phases yields materially different efficiency numbers
  // than equal-width wall-clock bins — a bin averages the imbalanced
  // compute phase with its reduction neighbors, a phase window doesn't.
  const double d_parallel =
      std::fabs(by_phase.parallel.summary.mean - by_bin.parallel.summary.mean);
  const double d_balance =
      std::fabs(by_phase.balance.summary.min - by_bin.balance.summary.min);
  if (d_parallel < 1e-3 && d_balance < 1e-3) {
    std::fprintf(stderr,
                 "FAIL: phase slicing indistinguishable from bins "
                 "(d_parallel=%.6f d_balance=%.6f)\n",
                 d_parallel, d_balance);
    return 3;
  }
  std::printf("phase slicing vs bins: mean parallel %.3f vs %.3f, worst "
              "load balance %.3f vs %.3f\n",
              by_phase.parallel.summary.mean, by_bin.parallel.summary.mean,
              by_phase.balance.summary.min, by_bin.balance.summary.min);
  return 0;
}
