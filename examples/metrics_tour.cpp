/// \file metrics_tour.cpp
/// All of the library's metrics on one trace, side by side: the paper's
/// three (§4: idle experienced, differential duration, imbalance), the
/// traditional lateness it argues against, Projections-style profiles,
/// the critical path, and the time-resolved POP efficiency suite broken
/// down per recovered phase. Also demonstrates the iteration-structure
/// detector on the phase signature.
///
///   ./metrics_tour [--iterations=4 --seed=1 --slow-chare=5]

#include <algorithm>
#include <cstdio>
#include <vector>

#include "apps/jacobi2d.hpp"
#include "metrics/critical_path.hpp"
#include "metrics/duration.hpp"
#include "metrics/concurrency.hpp"
#include "metrics/efficiency.hpp"
#include "metrics/idle.hpp"
#include "metrics/imbalance.hpp"
#include "metrics/lateness.hpp"
#include "metrics/profile.hpp"
#include "order/stats.hpp"
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

  // Structure summary with iteration detection.
  std::string sig = order::phase_signature(t, ls);
  order::PhasePattern pattern = order::detect_pattern(sig);
  std::printf("phase signature: %s", sig.c_str());
  if (pattern.repeats >= 2) {
    std::printf("  =  \"%s\" + \"%s\" x %d", pattern.lead.c_str(),
                pattern.unit.c_str(), pattern.repeats);
  }
  std::printf("\n\n");

  // The paper's metrics.
  metrics::IdleExperienced ie = metrics::idle_experienced(t);
  metrics::DifferentialDuration dd = metrics::differential_duration(t, ls);
  metrics::Imbalance imb = metrics::imbalance(t, ls);
  metrics::Lateness late = metrics::lateness(t, ls);
  metrics::CriticalPath cp = metrics::critical_path(t, ls);

  trace::TimeNs total_ie = 0;
  for (auto v : ie.per_event) total_ie += v;
  trace::TimeNs total_imb = 0;
  for (auto v : imb.per_phase) total_imb += v;

  util::TablePrinter table({"metric", "headline", "where it points"});
  auto at = [&](trace::EventId e) {
    if (e == trace::kNone) return std::string("-");
    return t.chare(t.event(e).chare).name + " @ step " +
           std::to_string(ls.global_step[static_cast<std::size_t>(e)]);
  };
  table.row()
      .add("idle experienced (Sec. 4)")
      .add(std::to_string(total_ie / 1000) + " us total")
      .add("blocks starved behind the reductions");
  table.row()
      .add("differential duration (Sec. 4)")
      .add(std::to_string(dd.max_value / 1000) + " us max")
      .add(at(dd.max_event));
  table.row()
      .add("imbalance (Sec. 4)")
      .add(std::to_string(total_imb / 1000) + " us summed")
      .add("the hotspot chare's processor");
  table.row()
      .add("lateness ([13], for contrast)")
      .add(std::to_string(late.max_value / 1000) + " us max")
      .add(at(late.max_event));
  table.row()
      .add("critical path (extension)")
      .add(std::to_string(cp.length_ns / 1000) + " us, " +
           std::to_string(static_cast<int>(100 * cp.coverage)) +
           "% of makespan")
      .add(std::to_string(cp.events.size()) + " events");
  table.print();

  // Which chare dominates each metric? With a persistent hotspot, the
  // paper's metrics and the critical path all converge on it; lateness
  // spreads blame across everything the reduction made wait.
  if (cfg.slow_chare >= 0) {
    auto argmax_chare = [&](const std::vector<trace::TimeNs>& per_event) {
      std::vector<trace::TimeNs> per_chare(
          static_cast<std::size_t>(t.num_chares()), 0);
      for (trace::EventId e = 0; e < t.num_events(); ++e)
        per_chare[static_cast<std::size_t>(t.event(e).chare)] +=
            per_event[static_cast<std::size_t>(e)];
      return static_cast<trace::ChareId>(
          std::max_element(per_chare.begin(), per_chare.end()) -
          per_chare.begin());
    };
    std::printf("\nhotspot attribution (injected at jacobi[%d]):\n",
                cfg.slow_chare);
    std::printf("  differential duration -> %s\n",
                t.chare(argmax_chare(dd.per_event)).name.c_str());
    std::printf("  critical-path share   -> %s\n",
                t.chare(static_cast<trace::ChareId>(
                            std::max_element(cp.chare_share.begin(),
                                             cp.chare_share.end()) -
                            cp.chare_share.begin()))
                    .name.c_str());
    std::printf("  lateness              -> %s (diffuse, as Sec. 4 "
                "argues)\n",
                t.chare(argmax_chare(late.per_event)).name.c_str());
  }

  // Time-resolved POP efficiency per recovered phase: where does the
  // hotspot phase lose its parallel efficiency — balance, transfer, or
  // serialization? (docs/METRICS.md has the definitions.)
  const metrics::WindowSet phase_windows =
      metrics::WindowSet::phases(t, ls.phases);
  const metrics::EfficiencySuite eff =
      metrics::efficiency_suite(t, phase_windows);
  std::printf("\nper-phase efficiency (POP):\n");
  util::TablePrinter eff_table({"phase", "events", "parallel", "load bal",
                                "comm", "serial", "transfer"});
  for (std::int32_t w = 0; w < eff.num_windows(); ++w) {
    const auto wz = static_cast<std::size_t>(w);
    if (eff.loads.events[wz] == 0) continue;
    eff_table.row()
        .add("phase " + std::to_string(eff.windows[wz].phase))
        .add(static_cast<std::int64_t>(eff.loads.events[wz]))
        .add(eff.parallel.per_window[wz], 3)
        .add(eff.balance.per_window[wz], 3)
        .add(eff.communication.per_window[wz], 3)
        .add(eff.serialization.per_window[wz], 3)
        .add(eff.transfer.per_window[wz], 3);
  }
  eff_table.print();
  std::printf("  worst load balance: %.3f in phase window %d "
              "(mean parallel %.3f)\n",
              eff.balance.summary.min, eff.balance.summary.min_window,
              eff.parallel.summary.mean);

  // Projections-style profile and utilization for the traditional view.
  std::printf("\nentry profile:\n");
  util::TablePrinter prof({"entry", "calls", "total (us)", "mean (us)"});
  for (const auto& row : metrics::entry_profile(t)) {
    prof.row()
        .add(row.name)
        .add(row.executions)
        .add(row.total_ns / 1000.0)
        .add(row.mean_ns() / 1000.0);
  }
  prof.print();

  std::printf("\nutilization:\n");
  util::TablePrinter util_table({"PE", "busy", "idle", "other"});
  for (const auto& row : metrics::utilization(t)) {
    util_table.row()
        .add(static_cast<std::int64_t>(row.proc))
        .add(row.busy, 2)
        .add(row.idle, 2)
        .add(row.other, 2);
  }
  util_table.print();
  if (!metrics::write_efficiency_report(flags, t, ls, argv[0])) return 3;
  if (!metrics::write_concurrency_report(flags, t, ls, argv[0])) return 3;
  util::finish_obs(flags, argv[0]);
  return 0;
}
