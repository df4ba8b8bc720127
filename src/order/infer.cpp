#include "order/infer.hpp"

#include <algorithm>
#include <limits>

#include "graph/leaps.hpp"
#include "order/context.hpp"
#include "util/check.hpp"
#include "util/scratch.hpp"
#include "util/thread_pool.hpp"

namespace logstruct::order {

namespace {

/// (time, partition) of every partition-initial source event of a chare:
/// the chare's first event inside the partition, when that event is a
/// send.
struct ChareSource {
  trace::TimeNs time;
  PartId part;
};

std::vector<std::vector<ChareSource>> collect_initial_sources(
    const PartitionGraph& pg, int threads) {
  const trace::Trace& trace = pg.trace();
  // Per-partition scans are independent (index-owned output slots); the
  // scatter into per-chare lists stays serial, and the (time, part) sort
  // is a total order — at most one source per (partition, chare) — so
  // the result is deterministic for any thread count.
  std::vector<std::vector<std::pair<trace::ChareId, ChareSource>>>
      per_part(static_cast<std::size_t>(pg.num_partitions()));
  // Per chare, the last partition that saw it: partition ids stamp the
  // entries, so a worker's vector serves all its partitions uncleared.
  // Partitions go in chunks, so a vector is borrowed once per chunk.
  util::ScratchPool<std::vector<PartId>> pool;
  util::parallel_for_chunks(
      threads, pg.num_partitions(), /*grain=*/64,
      [&](std::int64_t lo, std::int64_t hi) {
        pool.with([&](std::vector<PartId>& seen) {
          seen.resize(static_cast<std::size_t>(trace.num_chares()), -1);
          for (std::int64_t pi = lo; pi < hi; ++pi) {
            const auto p = static_cast<PartId>(pi);
            for (trace::EventId e : pg.events(p)) {
              const trace::Event& ev = trace.event(e);
              PartId& last = seen[static_cast<std::size_t>(ev.chare)];
              if (std::exchange(last, p) == p) continue;  // not the first
              if (ev.kind == trace::EventKind::Send)
                per_part[static_cast<std::size_t>(pi)].emplace_back(
                    ev.chare, ChareSource{ev.time, p});
            }
          }
        });
      });
  std::vector<std::vector<ChareSource>> per_chare(
      static_cast<std::size_t>(trace.num_chares()));
  for (const auto& list : per_part) {
    for (const auto& [c, src] : list)
      per_chare[static_cast<std::size_t>(c)].push_back(src);
  }
  util::parallel_for(
      threads, static_cast<std::int64_t>(per_chare.size()),
      [&](std::int64_t c) {
        auto& list = per_chare[static_cast<std::size_t>(c)];
        std::sort(list.begin(), list.end(),
                  [](const ChareSource& a, const ChareSource& b) {
                    if (a.time != b.time) return a.time < b.time;
                    return a.part < b.part;
                  });
      });
  return per_chare;
}

/// Earliest initial-source time of partition p restricted to chares in
/// `filter` (all chares when filter is empty). Returns max() if none.
trace::TimeNs earliest_initial_source(
    const PartitionGraph& pg, PartId p,
    const std::vector<trace::ChareId>& filter) {
  const trace::Trace& trace = pg.trace();
  trace::TimeNs best = std::numeric_limits<trace::TimeNs>::max();
  for (trace::ChareId c : filter.empty()
                              ? std::vector<trace::ChareId>(
                                    pg.chares(p).begin(), pg.chares(p).end())
                              : filter) {
    trace::EventId e = pg.first_event_of_chare(p, c);
    if (e == trace::kNone) continue;
    if (trace.event(e).kind != trace::EventKind::Send) continue;
    best = std::min(best, trace.event(e).time);
  }
  return best;
}

/// Earliest event time of p on any processor in `procs`.
trace::TimeNs earliest_event_on_procs(
    const PartitionGraph& pg, PartId p,
    const std::vector<trace::ProcId>& procs) {
  const trace::Trace& trace = pg.trace();
  for (trace::EventId e : pg.events(p)) {  // events are time-sorted
    if (std::find(procs.begin(), procs.end(), trace.event(e).proc) !=
        procs.end())
      return trace.event(e).time;
  }
  return std::numeric_limits<trace::TimeNs>::max();
}

std::vector<trace::ProcId> procs_of(const PartitionGraph& pg, PartId p) {
  std::vector<trace::ProcId> out;
  for (trace::EventId e : pg.events(p)) out.push_back(pg.trace().event(e).proc);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Decide the inferred order between two same-leap partitions sharing a
/// chare: by initial sources on shared chares, else per-processor
/// (§3.1.4), else earliest event, else id. Returns (earlier, later).
std::pair<PartId, PartId> order_pair(const PartitionGraph& pg, PartId p,
                                     PartId q) {
  // Shared chares.
  std::vector<trace::ChareId> shared;
  std::set_intersection(pg.chares(p).begin(), pg.chares(p).end(),
                        pg.chares(q).begin(), pg.chares(q).end(),
                        std::back_inserter(shared));
  constexpr trace::TimeNs kInf = std::numeric_limits<trace::TimeNs>::max();
  trace::TimeNs tp = earliest_initial_source(pg, p, shared);
  trace::TimeNs tq = earliest_initial_source(pg, q, shared);
  if (tp == kInf || tq == kInf) {
    // No initial sources on shared chares: the more liberal per-processor
    // comparison.
    std::vector<trace::ProcId> pp = procs_of(pg, p);
    std::vector<trace::ProcId> qq = procs_of(pg, q);
    std::vector<trace::ProcId> both;
    std::set_intersection(pp.begin(), pp.end(), qq.begin(), qq.end(),
                          std::back_inserter(both));
    if (!both.empty()) {
      tp = earliest_event_on_procs(pg, p, both);
      tq = earliest_event_on_procs(pg, q, both);
    }
  }
  if (tp == kInf || tq == kInf || tp == tq) {
    // Final fallback: first event anywhere, then id.
    tp = pg.trace().event(pg.events(p).front()).time;
    tq = pg.trace().event(pg.events(q).front()).time;
  }
  if (tp < tq) return {p, q};
  if (tq < tp) return {q, p};
  return p < q ? std::pair{p, q} : std::pair{q, p};
}

bool leap_property_holds(
    const PartitionGraph& pg,
    const std::vector<std::vector<graph::NodeId>>& groups) {
  std::vector<std::size_t> seen(  // chare -> last leap group holding it
      static_cast<std::size_t>(pg.trace().num_chares()), groups.size());
  for (std::size_t k = 0; k < groups.size(); ++k) {
    for (PartId p : groups[k]) {
      for (trace::ChareId c : pg.chares(p)) {
        if (std::exchange(seen[static_cast<std::size_t>(c)], k) == k)
          return false;
      }
    }
  }
  return true;
}

}  // namespace

void infer_source_order(OrderContext& ctx) {
  PartitionGraph& pg = ctx.pg();
  auto per_chare =
      collect_initial_sources(pg, ctx.options().effective_threads());
  auto& edges = ctx.scratch_edges();
  for (const auto& list : per_chare) {
    for (std::size_t i = 1; i < list.size(); ++i) {
      if (list[i - 1].part != list[i].part)
        edges.emplace_back(list[i - 1].part, list[i].part);
    }
  }
  pg.add_edges_bulk(edges);
  pg.cycle_merge();
}

void enforce_leap_property(OrderContext& ctx) {
  PartitionGraph& pg = ctx.pg();
  const PartitionOptions& opts = ctx.options().partition;
  // Each round sweeps EVERY leap (like the paper's Algorithm 4, which
  // computes all_leaps once per pass), batching the scheduled merges and
  // inferred order edges, then applies them together and re-derives the
  // leaps. Merges shrink the graph and order edges permanently separate a
  // pair, so the loop terminates; the cap is a safety net for logic
  // errors. Edges are only added between same-leap pairs, which cannot
  // close a cycle among themselves (a cycle would need a path between two
  // leaps in both directions); cycles through merged partitions are
  // handled by the cycle merge after applying. The leap groups come from
  // the context cache: recomputed only when the previous round actually
  // mutated the graph (epoch moved), and still warm for the downstream
  // passes once the fixpoint is reached.
  const std::int64_t cap =
      16 + 4 * static_cast<std::int64_t>(pg.num_partitions());
  // owner[c]: (leap, first partition of that leap holding chare c).
  std::vector<std::pair<std::size_t, PartId>> owner(
      static_cast<std::size_t>(pg.trace().num_chares()));
  for (std::int64_t round = 0;; ++round) {
    LS_CHECK_MSG(round < cap, "leap-property fixpoint did not converge");
    const auto& groups = ctx.leap_groups();

    auto& merges = ctx.scratch_pairs();
    auto& edges = ctx.scratch_edges();
    std::fill(owner.begin(), owner.end(), std::pair{groups.size(), -1});
    for (std::size_t k = 0; k < groups.size(); ++k) {
      for (PartId p : groups[k]) {
        for (trace::ChareId c : pg.chares(p)) {
          auto& [leap, q] = owner[static_cast<std::size_t>(c)];
          if (std::exchange(leap, k) != k) q = p;
          if (q == p) continue;
          if (pg.runtime(p) == pg.runtime(q) && opts.leap_merge) {
            merges.emplace_back(q, p);
          } else {
            edges.push_back(order_pair(pg, q, p));
          }
        }
      }
    }
    if (merges.empty() && edges.empty()) return;
    if (merges.empty() && !edges.empty()) {
      // Deduplicate (several shared chares can produce the same pair).
      std::sort(edges.begin(), edges.end());
      edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
      pg.add_edges_bulk(edges);
    }
    // With merges pending, partition ids are about to be invalidated;
    // edges recomputed next round against fresh leaps.
    if (!merges.empty()) pg.apply_merges(merges);
    pg.cycle_merge();
  }
}

void enforce_chare_paths(OrderContext& ctx) {
  PartitionGraph& pg = ctx.pg();
  const auto& leaps = ctx.leaps();
  const auto& groups = ctx.leap_groups();
  const trace::Trace& trace = pg.trace();

  // For each chare: the nearest later leap containing it and the owning
  // partition there (unique thanks to property 1).
  std::vector<std::int32_t> next_leap(
      static_cast<std::size_t>(trace.num_chares()), -1);
  std::vector<PartId> next_owner(
      static_cast<std::size_t>(trace.num_chares()), -1);

  // covered[c] == p: a direct successor of p holds chare c.
  std::vector<PartId> covered(next_leap.size(), -1);
  auto& edges = ctx.scratch_edges();
  for (std::int32_t k = static_cast<std::int32_t>(groups.size()) - 1; k >= 0;
       --k) {
    for (PartId p : groups[static_cast<std::size_t>(k)]) {
      for (graph::NodeId succ : pg.dag().successors(p)) {
        for (trace::ChareId c : pg.chares(succ))
          covered[static_cast<std::size_t>(c)] = p;
      }
      for (trace::ChareId c : pg.chares(p)) {
        if (covered[static_cast<std::size_t>(c)] == p) continue;
        std::int32_t nl = next_leap[static_cast<std::size_t>(c)];
        if (nl == -1) continue;  // no later leap contains c: property met
        edges.emplace_back(p, next_owner[static_cast<std::size_t>(c)]);
      }
    }
    for (PartId p : groups[static_cast<std::size_t>(k)]) {
      for (trace::ChareId c : pg.chares(p)) {
        next_leap[static_cast<std::size_t>(c)] = k;
        next_owner[static_cast<std::size_t>(c)] = p;
      }
    }
  }

  // Algorithm 5 alone does not deliver the paper's stated goal ("a single
  // path through the phase DAG for each chare"): a partition whose direct
  // successor holds the chare at a LATER leap can skip over an
  // intermediate, unordered occurrence, letting two of the chare's phases
  // overlap in global steps. Close the gap by chaining each chare's
  // partitions in leap order (property 1 makes the leaps distinct, so the
  // chain is forward-only and cannot create a cycle or change any leap).
  {
    std::vector<std::vector<std::pair<std::int32_t, PartId>>> occurrences(
        static_cast<std::size_t>(trace.num_chares()));
    for (PartId p = 0; p < pg.num_partitions(); ++p) {
      for (trace::ChareId c : pg.chares(p))
        occurrences[static_cast<std::size_t>(c)].emplace_back(
            leaps[static_cast<std::size_t>(p)], p);
    }
    for (auto& list : occurrences) {
      std::sort(list.begin(), list.end());
      for (std::size_t i = 1; i < list.size(); ++i)
        edges.emplace_back(list[i - 1].second, list[i].second);
    }
  }
  pg.add_edges_bulk(edges);
}

bool check_leap_property(OrderContext& ctx) {
  return leap_property_holds(ctx.pg(), ctx.leap_groups());
}

bool check_leap_property(const PartitionGraph& pg) {
  auto leaps = graph::compute_leaps(pg.dag());
  auto groups = graph::group_by_leap(leaps);
  return leap_property_holds(pg, groups);
}

bool check_chare_paths(const PartitionGraph& pg) {
  auto leaps = graph::compute_leaps(pg.dag());
  auto groups = graph::group_by_leap(leaps);

  const auto num_chares = static_cast<std::size_t>(pg.trace().num_chares());
  std::vector<std::int32_t> next_leap(num_chares, -1);
  std::vector<PartId> covered(num_chares, -1);  // as in enforce_chare_paths
  bool ok = true;
  for (std::int32_t k = static_cast<std::int32_t>(groups.size()) - 1; k >= 0;
       --k) {
    for (PartId p : groups[static_cast<std::size_t>(k)]) {
      for (graph::NodeId succ : pg.dag().successors(p)) {
        for (trace::ChareId c : pg.chares(succ))
          covered[static_cast<std::size_t>(c)] = p;
      }
      for (trace::ChareId c : pg.chares(p)) {
        if (covered[static_cast<std::size_t>(c)] != p &&
            next_leap[static_cast<std::size_t>(c)] != -1)
          ok = false;
      }
    }
    for (PartId p : groups[static_cast<std::size_t>(k)]) {
      for (trace::ChareId c : pg.chares(p))
        next_leap[static_cast<std::size_t>(c)] = k;
    }
  }
  return ok;
}

}  // namespace logstruct::order
