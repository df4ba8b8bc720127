#include "order/partition_graph.hpp"

#include <utility>

#include "graph/scc.hpp"
#include "graph/union_find.hpp"
#include "util/check.hpp"
#include "util/csr.hpp"

namespace logstruct::order {

PartitionGraph::PartitionGraph(const trace::Trace& trace)
    : trace_(&trace),
      part_of_(static_cast<std::size_t>(trace.num_events()), -1) {}

PartId PartitionGraph::add_partition(std::span<const trace::EventId> events,
                                     bool runtime) {
  LS_CHECK(!finalized_);
  LS_CHECK_MSG(!events.empty(), "empty partition");
  PartId id = num_partitions();
  for (trace::EventId e : events) {
    LS_CHECK_MSG(part_of_[static_cast<std::size_t>(e)] == -1,
                 "event assigned to two partitions");
    part_of_[static_cast<std::size_t>(e)] = id;
  }
  runtime_.push_back(runtime);
  return id;
}

void PartitionGraph::add_edge(PartId from, PartId to) {
  if (from == to) return;
  edges_.emplace_back(from, to);
}

void PartitionGraph::finalize(std::span<const trace::EventId> by_time) {
  LS_CHECK(!finalized_);
  LS_CHECK(by_time.size() == static_cast<std::size_t>(trace_->num_events()));
  finalized_ = true;
  for (trace::EventId e = 0; e < trace_->num_events(); ++e) {
    LS_CHECK_MSG(part_of_[static_cast<std::size_t>(e)] != -1,
                 "event not covered by any initial partition");
  }
  dag_guard_.dirty.store(true, std::memory_order_release);
  epoch_ = 1;
  by_time_ = by_time;
  build_membership();
}

void PartitionGraph::build_membership() {
  const auto np = static_cast<std::size_t>(num_partitions());
  auto part_of = [this](trace::EventId e) {
    return static_cast<std::size_t>(part_of_[static_cast<std::size_t>(e)]);
  };
  // Events: scattering the time order leaves every row in Trace::before
  // order without a comparison.
  util::csr_scatter(
      np,
      [&](auto emit) {
        for (trace::EventId e : by_time_) emit(part_of(e), e);
      },
      event_begin_, events_);
  // Chares: walk each chare's events in ascending chare order; the
  // last-chare stamp emits each (partition, chare) once, so every row
  // comes out sorted and unique.
  std::vector<trace::ChareId> stamp(np, -1);
  std::vector<std::pair<PartId, trace::ChareId>> hits;
  for (trace::ChareId c = 0; c < trace_->num_chares(); ++c) {
    for (trace::EventId e : trace_->events_of_chare(c)) {
      const std::size_t p = part_of(e);
      if (std::exchange(stamp[p], c) != c) hits.emplace_back(p, c);
    }
  }
  util::csr_scatter(
      np, [&](auto emit) { for (auto [p, c] : hits) emit(p, c); },
      chare_begin_, chares_);
}

void PartitionGraph::ensure_dag() const {
  // Double-checked: the acquire load pairs with the release store below,
  // so a reader that sees `dirty == false` also sees the materialized
  // dag_/edges_. Concurrent first readers serialize on the mutex.
  if (!dag_guard_.dirty.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(dag_guard_.mu);
  if (!dag_guard_.dirty.load(std::memory_order_relaxed)) return;
  // Building the DAG compacts the flat list to the unique edges, keeping
  // future remaps proportional to |E|.
  dag_ = graph::Digraph(num_partitions(), edges_);
  dag_guard_.dirty.store(false, std::memory_order_release);
}

trace::EventId PartitionGraph::first_event_of_chare(PartId p,
                                                    trace::ChareId c) const {
  for (trace::EventId e : events(p)) {
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
  std::vector<bool> new_runtime(static_cast<std::size_t>(num_new), false);
  for (std::size_t p = 0; p < runtime_.size(); ++p) {
    if (runtime_[p]) new_runtime[static_cast<std::size_t>(label[p])] = true;
  }
  runtime_ = std::move(new_runtime);
  for (auto& po : part_of_)
    po = label[static_cast<std::size_t>(po)];
  build_membership();

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
  for (const auto* v : {&part_of_, &event_begin_, &events_,
                        &chare_begin_, &chares_})
    b += static_cast<std::int64_t>(v->capacity() * sizeof(std::int32_t));
  return b;
}

}  // namespace logstruct::order
