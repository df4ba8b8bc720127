#include "graph/digraph.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/csr.hpp"

namespace logstruct::graph {

using Edge = std::pair<NodeId, NodeId>;

void Digraph::reset(NodeId num_nodes) {
  LS_CHECK(num_nodes >= 0);
  num_nodes_ = num_nodes;
  pending_.clear();
  succ_begin_.assign(static_cast<std::size_t>(num_nodes) + 1, 0);
  succ_.clear();
  pred_begin_.assign(static_cast<std::size_t>(num_nodes) + 1, 0);
  pred_.clear();
}

Digraph::Digraph(NodeId num_nodes, std::vector<Edge>& edges) {
  reset(num_nodes);
  for (auto [u, v] : edges)
    LS_CHECK(u >= 0 && u < num_nodes && v >= 0 && v < num_nodes);
  std::erase_if(edges, [](const Edge& e) { return e.first == e.second; });
  build_rows(edges);
}

void Digraph::add_edge(NodeId u, NodeId v) {
  LS_CHECK(u >= 0 && u < num_nodes() && v >= 0 && v < num_nodes());
  if (u == v) return;
  pending_.emplace_back(u, v);
}

void Digraph::finalize() {
  std::vector<Edge> edges = std::move(pending_);
  pending_ = {};
  build_rows(edges);
}

void Digraph::build_rows(std::vector<Edge>& edges) {
  const auto n = static_cast<std::size_t>(num_nodes_);
  // Radix sort on (u, v): a stable scatter by v, then one by u; the
  // sorted list then drops its adjacent duplicates.
  std::vector<std::int32_t> begin;
  std::vector<Edge> by_v;
  util::csr_scatter(
      n, [&](auto emit) { for (const Edge& e : edges) emit(e.second, e); },
      begin, by_v);
  util::csr_scatter(
      n, [&](auto emit) { for (const Edge& e : by_v) emit(e.first, e); },
      begin, edges);
  by_v = {};
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  // Cutting the sorted list at each u gives rows sorted by v; scattering
  // it by v gives rows sorted by u.
  util::csr_scatter(
      n, [&](auto emit) { for (auto [u, v] : edges) emit(u, v); },
      succ_begin_, succ_);
  util::csr_scatter(
      n, [&](auto emit) { for (auto [u, v] : edges) emit(v, u); },
      pred_begin_, pred_);
}

bool Digraph::has_edge(NodeId u, NodeId v) const {
  const auto adj = successors(u);
  return std::binary_search(adj.begin(), adj.end(), v);
}

std::vector<std::pair<NodeId, NodeId>> Digraph::edges() const {
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(num_edges());
  for (NodeId u = 0; u < num_nodes(); ++u) {
    for (NodeId v : successors(u)) out.emplace_back(u, v);
  }
  return out;
}

}  // namespace logstruct::graph
