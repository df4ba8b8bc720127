#pragma once

/// \file digraph.hpp
/// Compact directed graph used for the partition graph and phase DAG.
///
/// Nodes are dense integer ids [0, n). add_edge() appends to one flat
/// edge list; finalize() turns it into compressed sparse rows: `succ_`
/// and `pred_` are flat id arrays indexed by `succ_begin_` /
/// `pred_begin_` (n + 1 offsets each). Every row comes out sorted and
/// deduplicated. The partition pipeline rebuilds graphs wholesale after
/// each merge pass, so the representation optimizes for bulk
/// construction + traversal rather than incremental deletion.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace logstruct::graph {

using NodeId = std::int32_t;

class Digraph {
 public:
  Digraph() = default;
  explicit Digraph(NodeId num_nodes) { reset(num_nodes); }
  /// The finalized graph of `edges` over `num_nodes` nodes. The list is
  /// compacted in place: it is left holding what edges() returns (sorted,
  /// unique, no self-loops).
  Digraph(NodeId num_nodes, std::vector<std::pair<NodeId, NodeId>>& edges);

  /// Drop every edge and resize to `num_nodes` isolated nodes.
  void reset(NodeId num_nodes);

  /// Add edge u->v. Self-loops are ignored. Duplicates are removed by
  /// finalize(); callers may add freely.
  void add_edge(NodeId u, NodeId v);

  /// Build the sorted, deduplicated rows from the edges added since
  /// reset(); call it once, after the last add_edge and before queries.
  void finalize();

  [[nodiscard]] NodeId num_nodes() const { return num_nodes_; }
  [[nodiscard]] std::size_t num_edges() const { return succ_.size(); }

  [[nodiscard]] std::span<const NodeId> successors(NodeId u) const {
    return row(succ_begin_, succ_, u);
  }
  [[nodiscard]] std::span<const NodeId> predecessors(NodeId u) const {
    return row(pred_begin_, pred_, u);
  }

  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  /// All edges as (u, v) pairs in (u, v) order; mainly for tests and
  /// rebuilds.
  [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> edges() const;

 private:
  static std::span<const NodeId> row(const std::vector<std::int32_t>& begin,
                                     const std::vector<NodeId>& flat,
                                     NodeId u) {
    const auto i = static_cast<std::size_t>(u);
    return {flat.data() + begin[i], flat.data() + begin[i + 1]};
  }

  /// Build the rows from `edges` (no self-loops), leaving the list
  /// sorted and unique.
  void build_rows(std::vector<std::pair<NodeId, NodeId>>& edges);

  NodeId num_nodes_ = 0;
  /// Edges added since reset(), until finalize() consumes them.
  std::vector<std::pair<NodeId, NodeId>> pending_;
  std::vector<std::int32_t> succ_begin_ = {0};
  std::vector<NodeId> succ_;
  std::vector<std::int32_t> pred_begin_ = {0};
  std::vector<NodeId> pred_;
};

}  // namespace logstruct::graph
