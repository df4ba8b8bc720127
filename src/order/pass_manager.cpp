#include "order/pass_manager.hpp"

#include <cstdio>
#include <cstdlib>

#include "graph/scc.hpp"
#include "obs/flightrec.hpp"
#include "obs/obs.hpp"
#include "obs/progress.hpp"
#include "order/context.hpp"
#include "order/infer.hpp"
#include "trace/storage/block_cache.hpp"
#include "util/stopwatch.hpp"

namespace logstruct::order {

PassManager::PassManager(bool check_invariants)
    : check_(check_invariants || invariant_check_forced()) {}

void PassManager::add(Pass pass) { passes_.push_back(std::move(pass)); }

bool PassManager::invariant_check_forced() {
  static const bool forced = [] {
    const char* v = std::getenv("LOGSTRUCT_CHECK_PASSES");
    return v != nullptr && v[0] != '\0' &&
           !(v[0] == '0' && v[1] == '\0');
  }();
  return forced;
}

void PassManager::run(OrderContext& ctx) {
  records_.clear();
  records_.reserve(passes_.size());
  for (const Pass& pass : passes_) {
    obs::AllocScope allocs;  // ordinary API: zero deltas without the hook
    const auto cache_before = trace::storage::BlockCache::global().stats();
    // Pass-level progress scope (indeterminate): a crash dump mid-pass
    // always names the running pass even when the pass body opens no
    // finer-grained Progress of its own.
    obs::Progress progress("order/" + pass.name, 0);
    util::Stopwatch sw;
    [[maybe_unused]] const std::int64_t merges_before =
        ctx.has_pg() ? ctx.pg().merges_applied() : 0;
    // What the pass may fan out over; the body resolves the same value
    // internally, so the record stays honest.
    const int threads = pass.parallelism == Parallelism::kPhaseParallel
                            ? ctx.options().effective_threads()
                            : 1;
    if (pass.own_span) {
      if (pass.enabled) pass.run(ctx);
    } else {
      // Disabled passes still open their span so telemetry sidecars
      // always carry the full stage taxonomy.
      OBS_SPAN(span, "order/" + pass.name);
      if (pass.enabled) pass.run(ctx);
      if (ctx.has_pg()) span.attr("partitions", ctx.pg().num_partitions());
      if (threads > 1) span.attr("threads", threads);
    }
    PassRecord rec;
    rec.name = pass.name;
    rec.seconds = sw.seconds();
    rec.ran = pass.enabled;
    rec.partitions = ctx.has_pg() ? ctx.pg().num_partitions() : -1;
    rec.alloc_bytes = allocs.delta().bytes;
    rec.threads = threads;
    const auto cache_after = trace::storage::BlockCache::global().stats();
    rec.cache_misses =
        static_cast<std::int64_t>(cache_after.misses - cache_before.misses);
    rec.cache_lookups =
        rec.cache_misses +
        static_cast<std::int64_t>(cache_after.hits - cache_before.hits);
    records_.push_back(std::move(rec));
#if LOGSTRUCT_OBS
    if (pass.enabled) {
      // Runtime-composed names bypass the static-handle macro; still
      // behind the compile-time kill switch.
      auto& reg = obs::Registry::global();
      reg.counter("order/pass/" + pass.name + "/runs").add(1);
      if (ctx.has_pg())
        reg.counter("order/pass/" + pass.name + "/merges")
            .add(ctx.pg().merges_applied() - merges_before);
    }
    // High-water gauges over the pipeline's big owners, refreshed at
    // every pass boundary (memory peaks live at stage edges, not inside).
    auto raise = [](obs::Gauge& g, std::int64_t v) {
      if (v > g.value()) g.set(v);
    };
    raise(obs::Registry::global().gauge("order/context/arena_hwm_bytes"),
          ctx.arena_bytes());
    if (ctx.has_pg()) {
      raise(obs::Registry::global().gauge(
                "order/partition_graph/edge_capacity_bytes"),
            ctx.pg().edge_capacity_bytes());
      raise(obs::Registry::global().gauge(
                "order/partition_graph/footprint_bytes"),
            ctx.pg().memory_bytes());
    }
#endif
    // Counters the pass just created join the crash-dump table.
    if (obs::FlightRecorder::global().armed())
      obs::FlightRecorder::global().refresh_metrics();
    if (check_ && pass.enabled) verify(pass, ctx);
  }
}

void PassManager::verify(const Pass& pass, OrderContext& ctx) const {
  if (pass.checks == kCheckNone || !ctx.has_pg()) return;
  const PartitionGraph& pg = ctx.pg();
  auto fail = [&pass](const char* what) {
    std::fprintf(stderr, "pass invariant violated after order/%s: %s\n",
                 pass.name.c_str(), what);
    std::abort();
  };
  if ((pass.checks & kCheckDag) && !graph::is_dag(pg.dag()))
    fail("partition graph is not a DAG");
  if (pass.checks & kCheckCoverage) {
    std::int64_t total = 0;
    for (PartId p = 0; p < pg.num_partitions(); ++p) {
      auto evs = pg.events(p);
      if (evs.empty()) fail("empty partition");
      total += static_cast<std::int64_t>(evs.size());
      for (trace::EventId e : evs) {
        if (pg.part_of(e) != p) fail("event->partition index out of sync");
      }
    }
    if (total != pg.trace().num_events())
      fail("events not covered exactly once");
  }
  if ((pass.checks & kCheckLeapProperty) && !check_leap_property(pg))
    fail("property 1 (leap property) violated");
  if ((pass.checks & kCheckCharePaths) && !check_chare_paths(pg))
    fail("property 2 (chare paths) violated");
}

}  // namespace logstruct::order
