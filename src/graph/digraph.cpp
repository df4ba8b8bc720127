#include "graph/digraph.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"

namespace logstruct::graph {

namespace {

using Edge = std::pair<NodeId, NodeId>;

/// Stable counting scatter of `edges` into CSR rows by `key` in [0, n):
/// out[...] = value(edge); returns the n + 1 row offsets. Each row keeps
/// the edges' input order.
template <typename Key, typename Value, typename Out>
std::vector<std::int32_t> scatter(const std::vector<Edge>& edges,
                                  std::size_t n, Key key, Value value,
                                  std::vector<Out>& out) {
  std::vector<std::int32_t> begin(n + 1, 0);
  for (const Edge& e : edges) ++begin[static_cast<std::size_t>(key(e)) + 1];
  std::partial_sum(begin.begin(), begin.end(), begin.begin());
  out.resize(edges.size());
  // Placing advances each row's start to its end, the next row's start:
  // shifting the array back by one restores the offsets.
  for (const Edge& e : edges)
    out[static_cast<std::size_t>(begin[static_cast<std::size_t>(key(e))]++)] =
        value(e);
  std::copy_backward(begin.begin(), begin.end() - 1, begin.end());
  begin[0] = 0;
  return begin;
}

NodeId from(const Edge& e) { return e.first; }
NodeId to(const Edge& e) { return e.second; }
Edge whole(const Edge& e) { return e; }

}  // namespace

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
  std::vector<Edge> by_v;
  scatter(edges, n, to, whole, by_v);
  scatter(by_v, n, from, whole, edges);
  by_v = {};
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  // Cutting the sorted list at each u gives rows sorted by v; scattering
  // it by v gives rows sorted by u.
  succ_begin_ = scatter(edges, n, from, to, succ_);
  pred_begin_ = scatter(edges, n, to, from, pred_);
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
