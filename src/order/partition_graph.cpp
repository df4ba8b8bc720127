#include "order/partition_graph.hpp"

#include <algorithm>

#include "graph/scc.hpp"
#include "graph/union_find.hpp"
#include "util/check.hpp"

namespace logstruct::order {

PartitionGraph::PartitionGraph(const trace::Trace& trace)
    : trace_(&trace),
      part_of_(static_cast<std::size_t>(trace.num_events()), -1) {}

PartId PartitionGraph::add_partition(std::vector<trace::EventId> events,
                                     bool runtime) {
  LS_CHECK(!finalized_);
  LS_CHECK_MSG(!events.empty(), "empty partition");
  PartId id = static_cast<PartId>(events_.size());
  for (trace::EventId e : events) {
    LS_CHECK_MSG(part_of_[static_cast<std::size_t>(e)] == -1,
                 "event assigned to two partitions");
    part_of_[static_cast<std::size_t>(e)] = id;
  }
  events_.push_back(std::move(events));
  runtime_.push_back(runtime);
  return id;
}

void PartitionGraph::add_edge(PartId from, PartId to) {
  if (from == to) return;
  edges_.emplace_back(from, to);
}

void PartitionGraph::finalize() {
  LS_CHECK(!finalized_);
  finalized_ = true;
  for (trace::EventId e = 0; e < trace_->num_events(); ++e) {
    LS_CHECK_MSG(part_of_[static_cast<std::size_t>(e)] != -1,
                 "event not covered by any initial partition");
  }
  dag_guard_.dirty.store(true, std::memory_order_release);
  epoch_ = 1;

  chares_.assign(events_.size(), {});
  for (std::int32_t p = 0; p < num_partitions(); ++p) {
    auto& cs = chares_[static_cast<std::size_t>(p)];
    for (trace::EventId e : events_[static_cast<std::size_t>(p)])
      cs.push_back(trace_->event(e).chare);
    std::sort(cs.begin(), cs.end());
    cs.erase(std::unique(cs.begin(), cs.end()), cs.end());
  }
}

void PartitionGraph::ensure_dag() const {
  // Double-checked: the acquire load pairs with the release store below,
  // so a reader that sees `dirty == false` also sees the materialized
  // dag_/edges_. Concurrent first readers serialize on the mutex.
  if (!dag_guard_.dirty.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(dag_guard_.mu);
  if (!dag_guard_.dirty.load(std::memory_order_relaxed)) return;
  dag_.reset(num_partitions());
  for (auto [u, v] : edges_) dag_.add_edge(u, v);
  dag_.finalize();
  // Compact: the adjacency is deduplicated, so shrink the flat list back
  // to the unique edges to keep future remaps proportional to |E|.
  edges_ = dag_.edges();
  dag_guard_.dirty.store(false, std::memory_order_release);
}

trace::EventId PartitionGraph::first_event_of_chare(PartId p,
                                                    trace::ChareId c) const {
  for (trace::EventId e : events_[static_cast<std::size_t>(p)]) {
    if (trace_->event(e).chare == c) return e;
  }
  return trace::kNone;
}

void PartitionGraph::add_edges_bulk(
    std::span<const std::pair<PartId, PartId>> edges) {
  LS_CHECK(finalized_);
  if (edges.empty()) return;
  for (auto [u, v] : edges) {
    if (u != v) edges_.emplace_back(u, v);
  }
  dag_guard_.dirty.store(true, std::memory_order_release);
  ++epoch_;
}

bool PartitionGraph::apply_merges(
    std::span<const std::pair<PartId, PartId>> pairs) {
  LS_CHECK(finalized_);
  if (pairs.empty()) return false;
  graph::UnionFind uf(static_cast<std::size_t>(num_partitions()));
  for (auto [p, q] : pairs) uf.unite(p, q);
  if (uf.num_sets() == static_cast<std::size_t>(num_partitions()))
    return false;
  auto label = uf.dense_labels();
  relabel(label, static_cast<std::int32_t>(uf.num_sets()));
  return true;
}

bool PartitionGraph::cycle_merge() {
  LS_CHECK(finalized_);
  ensure_dag();
  graph::SccResult scc = graph::strongly_connected_components(dag_);
  if (scc.num_components == num_partitions()) return false;
  relabel(scc.component, scc.num_components);
  return true;
}

void PartitionGraph::relabel(const std::vector<std::int32_t>& label,
                             std::int32_t num_new) {
  merges_ += num_partitions() - num_new;
  const trace::Trace& tr = *trace_;
  auto by_time = [&tr](trace::EventId a, trace::EventId b) {
    return tr.before(a, b);
  };

  // The first member of each group donates its vectors; later members
  // merge in. Member event lists are already time-sorted, so each merge
  // is a sorted-run inplace_merge — partitions untouched by this batch
  // cost only a vector move.
  std::vector<std::vector<trace::EventId>> new_events(
      static_cast<std::size_t>(num_new));
  std::vector<std::vector<trace::ChareId>> new_chares(
      static_cast<std::size_t>(num_new));
  std::vector<bool> new_runtime(static_cast<std::size_t>(num_new), false);
  for (std::int32_t p = 0; p < num_partitions(); ++p) {
    auto nl = static_cast<std::size_t>(label[static_cast<std::size_t>(p)]);
    auto& dst = new_events[nl];
    auto& src = events_[static_cast<std::size_t>(p)];
    if (dst.empty()) {
      dst = std::move(src);
      new_chares[nl] = std::move(chares_[static_cast<std::size_t>(p)]);
    } else {
      auto mid = static_cast<std::ptrdiff_t>(dst.size());
      dst.insert(dst.end(), src.begin(), src.end());
      std::inplace_merge(dst.begin(), dst.begin() + mid, dst.end(), by_time);
      auto& cs = new_chares[nl];
      auto& add = chares_[static_cast<std::size_t>(p)];
      auto cmid = static_cast<std::ptrdiff_t>(cs.size());
      cs.insert(cs.end(), add.begin(), add.end());
      std::inplace_merge(cs.begin(), cs.begin() + cmid, cs.end());
      cs.erase(std::unique(cs.begin(), cs.end()), cs.end());
    }
    if (runtime_[static_cast<std::size_t>(p)]) new_runtime[nl] = true;
  }
  events_ = std::move(new_events);
  chares_ = std::move(new_chares);
  runtime_ = std::move(new_runtime);

  for (auto& po : part_of_)
    po = label[static_cast<std::size_t>(po)];

  // Remap the flat edge list in place, dropping collapsed self-edges;
  // dedup is deferred to the next dag() materialization.
  std::size_t w = 0;
  for (auto [u, v] : edges_) {
    std::int32_t nu = label[static_cast<std::size_t>(u)];
    std::int32_t nv = label[static_cast<std::size_t>(v)];
    if (nu != nv) edges_[w++] = {nu, nv};
  }
  edges_.resize(w);
  dag_guard_.dirty.store(true, std::memory_order_release);
  ++epoch_;
}

std::int64_t PartitionGraph::memory_bytes() const {
  std::int64_t b = edge_capacity_bytes();
  b += static_cast<std::int64_t>(part_of_.capacity() * sizeof(PartId));
  b += static_cast<std::int64_t>(events_.capacity() *
                                 sizeof(std::vector<trace::EventId>));
  for (const auto& v : events_)
    b += static_cast<std::int64_t>(v.capacity() * sizeof(trace::EventId));
  b += static_cast<std::int64_t>(chares_.capacity() *
                                 sizeof(std::vector<trace::ChareId>));
  for (const auto& v : chares_)
    b += static_cast<std::int64_t>(v.capacity() * sizeof(trace::ChareId));
  return b;
}

}  // namespace logstruct::order
