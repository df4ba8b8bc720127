#include "order/phases.hpp"

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "order/context.hpp"
#include "order/infer.hpp"
#include "order/initial.hpp"
#include "order/merges.hpp"
#include "order/partition_graph.hpp"
#include "order/pass_manager.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace logstruct::order {

namespace {

/// Renumber phases by (leap, first event time) for stable, readable ids
/// and materialize the PhaseResult into ctx.phases.
void finalize_phases(OrderContext& ctx) {
  PartitionGraph& pg = ctx.pg();
  const trace::Trace& trace = ctx.trace();
  LS_CHECK_MSG(check_leap_property(ctx), "property 1 violated after pipeline");
  const auto& leaps = ctx.leaps();
  PhaseResult& out = ctx.phases;

  std::vector<std::int32_t> order(
      static_cast<std::size_t>(pg.num_partitions()));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::int32_t a, std::int32_t b) {
    if (leaps[static_cast<std::size_t>(a)] !=
        leaps[static_cast<std::size_t>(b)])
      return leaps[static_cast<std::size_t>(a)] <
             leaps[static_cast<std::size_t>(b)];
    trace::TimeNs ta = trace.event(pg.events(a).front()).time;
    trace::TimeNs tb = trace.event(pg.events(b).front()).time;
    if (ta != tb) return ta < tb;
    return a < b;
  });
  std::vector<std::int32_t> new_id(
      static_cast<std::size_t>(pg.num_partitions()));
  for (std::size_t i = 0; i < order.size(); ++i)
    new_id[static_cast<std::size_t>(order[i])] =
        static_cast<std::int32_t>(i);

  // new_id is a bijection, so each iteration below owns its output slot;
  // both fills fan out over the pipeline's thread budget.
  const int threads = ctx.options().effective_threads();
  out.events.resize(static_cast<std::size_t>(pg.num_partitions()));
  out.runtime.resize(static_cast<std::size_t>(pg.num_partitions()));
  out.leap.resize(static_cast<std::size_t>(pg.num_partitions()));
  util::parallel_for(threads, pg.num_partitions(), [&](std::int64_t p) {
    auto n = static_cast<std::size_t>(new_id[static_cast<std::size_t>(p)]);
    out.events[n].assign(pg.events(static_cast<PartId>(p)).begin(),
                         pg.events(static_cast<PartId>(p)).end());
    out.leap[n] = leaps[static_cast<std::size_t>(p)];
  });
  // vector<bool> is bit-packed — adjacent slots share a word, so this
  // fill must stay serial.
  for (PartId p = 0; p < pg.num_partitions(); ++p)
    out.runtime[static_cast<std::size_t>(
        new_id[static_cast<std::size_t>(p)])] = pg.runtime(p);

  // Quarantine: a phase is degraded iff any of its events belongs to a
  // chare whose dependencies trace-level recovery altered. Clean traces
  // (no degraded chares — the overwhelmingly common case) skip the scan.
  out.degraded.assign(static_cast<std::size_t>(pg.num_partitions()), false);
  out.degraded_phases = 0;
  if (trace.num_degraded_chares() > 0) {
    for (PartId p = 0; p < pg.num_partitions(); ++p) {
      bool bad = false;
      for (trace::EventId e : pg.events(p)) {
        if (trace.is_degraded_chare(trace.event(e).chare)) {
          bad = true;
          break;
        }
      }
      if (bad) {
        out.degraded[static_cast<std::size_t>(
            new_id[static_cast<std::size_t>(p)])] = true;
        ++out.degraded_phases;
      }
    }
    OBS_COUNTER_ADD("order/degraded_phases", out.degraded_phases);
  }
  out.phase_of_event.assign(static_cast<std::size_t>(trace.num_events()),
                            -1);
  util::parallel_for(threads, trace.num_events(), [&](std::int64_t e) {
    out.phase_of_event[static_cast<std::size_t>(e)] =
        new_id[static_cast<std::size_t>(
            pg.part_of(static_cast<trace::EventId>(e)))];
  });

  std::vector<std::pair<graph::NodeId, graph::NodeId>> edges =
      pg.dag().edges();
  for (auto& [u, v] : edges) {
    u = new_id[static_cast<std::size_t>(u)];
    v = new_id[static_cast<std::size_t>(v)];
  }
  out.dag = graph::Digraph(pg.num_partitions(), edges);
  out.merges = pg.merges_applied();
}

}  // namespace

void register_partition_passes(PassManager& pm,
                               const PartitionOptions& opts) {
  // Every pass keeps the invariant: the partition graph is a DAG on entry
  // and exit (cycle merges run inside each pass).
  pm.add({.name = "initial",
          .run =
              [](OrderContext& ctx) {
                ctx.set_pg(build_initial_partitions(ctx));
                ctx.phases.initial_partitions = ctx.pg().num_partitions();
                ctx.pg().cycle_merge();  // raw edges may already cycle
              },
          .checks = kCheckDag | kCheckCoverage});
  pm.add({.name = "dependency_merge",  // §3.1.2, Algorithm 1
          .run = [](OrderContext& ctx) { dependency_merge(ctx); },
          .checks = kCheckDag | kCheckCoverage});
  pm.add({.name = "repair",  // §3.1.3, Algorithm 2
          .run = [](OrderContext& ctx) { repair_merge(ctx); },
          .enabled = opts.repair_serial_blocks,
          .checks = kCheckDag | kCheckCoverage});
  pm.add({.name = "neighbor_serial",  // §3.1.3, second rule
          .run = [](OrderContext& ctx) { neighbor_serial_merge(ctx); },
          .enabled = opts.neighbor_serial_merge && opts.sdag_inference,
          .checks = kCheckDag | kCheckCoverage});
  pm.add({.name = "infer_source_order",  // §3.1.4, Algorithm 3
          .run = [](OrderContext& ctx) { infer_source_order(ctx); },
          .enabled = opts.infer_source_order,
          .checks = kCheckDag | kCheckCoverage,
          .parallelism = Parallelism::kPhaseParallel});
  pm.add({.name = "enforce_leap_property",  // §3.1.4, Alg 4 / property 1
          .run = [](OrderContext& ctx) { enforce_leap_property(ctx); },
          .checks = kCheckDag | kCheckCoverage | kCheckLeapProperty});
  pm.add({.name = "enforce_chare_paths",  // §3.1.4, Alg 5 / property 2
          .run = [](OrderContext& ctx) { enforce_chare_paths(ctx); },
          .checks = kCheckDag | kCheckCoverage | kCheckLeapProperty |
                    kCheckCharePaths});
  pm.add({.name = "finalize",
          .run = finalize_phases,
          .parallelism = Parallelism::kPhaseParallel});
}

void run_partition_pipeline(OrderContext& ctx, PipelineTimings* timings,
                            std::vector<PassRecord>* records) {
  OBS_SPAN(span_all, "order/find_phases");
  span_all.attr("events", ctx.trace().num_events());

  LS_CHECK_MSG(ctx.options().allow_degraded ||
                   ctx.trace().num_degraded_chares() == 0,
               "degraded (recovery-repaired) trace refused: "
               "Options::allow_degraded is false");

  PassManager pm(ctx.options().partition.check_passes);
  register_partition_passes(pm, ctx.options().partition);
  pm.run(ctx);

  span_all.attr("phases", ctx.phases.num_phases());
  span_all.attr("merges", ctx.phases.merges);

  if (timings) {
    for (const PassRecord& r : pm.records()) {
      if (r.name == "initial") timings->initial += r.seconds;
      else if (r.name == "dependency_merge")
        timings->dependency_merge += r.seconds;
      else if (r.name == "repair") timings->repair += r.seconds;
      else if (r.name == "neighbor_serial") timings->neighbor += r.seconds;
      else if (r.name == "infer_source_order")
        timings->infer_sources += r.seconds;
      else if (r.name == "enforce_leap_property")
        timings->leap_property += r.seconds;
      else if (r.name == "enforce_chare_paths")
        timings->chare_paths += r.seconds;
      else if (r.name == "finalize") timings->finalize += r.seconds;
    }
  }
  if (records)
    records->insert(records->end(), pm.records().begin(),
                    pm.records().end());
}

PhaseResult find_phases(const trace::Trace& trace,
                        const PartitionOptions& opts,
                        PipelineTimings* timings,
                        std::vector<PassRecord>* records) {
  Options all;
  all.partition = opts;
  OrderContext ctx(trace, all);
  run_partition_pipeline(ctx, timings, records);
  return std::move(ctx.phases);
}

}  // namespace logstruct::order
