#include "graph/digraph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace logstruct::graph {
namespace {

TEST(Digraph, EmptyGraph) {
  Digraph g(0);
  EXPECT_EQ(g.num_nodes(), 0);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Digraph, AddAndQueryEdges) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.finalize();
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(1, 0));
}

TEST(Digraph, SelfLoopsIgnored) {
  Digraph g(2);
  g.add_edge(0, 0);
  g.add_edge(0, 1);
  g.finalize();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_FALSE(g.has_edge(0, 0));
}

TEST(Digraph, DuplicatesRemovedByFinalize) {
  Digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  g.finalize();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.successors(0).size(), 1u);
  EXPECT_EQ(g.predecessors(1).size(), 1u);
}

TEST(Digraph, PredecessorsMirrorSuccessors) {
  Digraph g(4);
  g.add_edge(0, 3);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  g.finalize();
  EXPECT_EQ(g.predecessors(3).size(), 3u);
  EXPECT_EQ(g.successors(3).size(), 0u);
}

TEST(Digraph, EdgesEnumeration) {
  Digraph g(3);
  g.add_edge(2, 0);
  g.add_edge(0, 1);
  g.finalize();
  auto edges = g.edges();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], (std::pair<NodeId, NodeId>{0, 1}));
  EXPECT_EQ(edges[1], (std::pair<NodeId, NodeId>{2, 0}));
}

TEST(Digraph, ResetClears) {
  Digraph g(2);
  g.add_edge(0, 1);
  g.reset(5);
  EXPECT_EQ(g.num_nodes(), 5);
  EXPECT_EQ(g.num_edges(), 0u);
}

/// The CSR rows match per-node sorted, deduplicated adjacency built from
/// the same edge list, whether added edge by edge or handed over whole,
/// on seeded random graphs that mix duplicate edges, self-loops,
/// isolated nodes and n = 0.
TEST(Digraph, CsrRowsMatchSortedUniqueReference) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    util::Rng rng(seed);
    const auto n = static_cast<NodeId>(rng.uniform(seed <= 10 ? 2 : 40));
    const std::uint64_t m = n == 0 ? 0 : rng.uniform(4 * n + 1);
    Digraph g(n);
    std::vector<std::pair<NodeId, NodeId>> added;
    std::vector<std::vector<NodeId>> succ(static_cast<std::size_t>(n));
    std::vector<std::vector<NodeId>> pred(static_cast<std::size_t>(n));
    for (std::uint64_t k = 0; k < m; ++k) {
      // Draw from a few "hot" nodes so duplicates and self-loops are
      // common, and leave the rest isolated.
      const auto hot = static_cast<std::uint64_t>(std::max<NodeId>(1, n / 3));
      const auto u = static_cast<NodeId>(rng.uniform(hot));
      const auto v = static_cast<NodeId>(
          rng.uniform(4) == 0 ? u : rng.uniform(static_cast<std::uint64_t>(n)));
      g.add_edge(u, v);
      added.emplace_back(u, v);
      if (rng.uniform(3) == 0) {
        g.add_edge(u, v);
        added.emplace_back(u, v);
      }
      if (u == v) continue;
      succ[static_cast<std::size_t>(u)].push_back(v);
      pred[static_cast<std::size_t>(v)].push_back(u);
    }
    g.finalize();
    std::size_t edges = 0;
    for (NodeId u = 0; u < n; ++u) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " node " +
                   std::to_string(u));
      for (auto* adj : {&succ[static_cast<std::size_t>(u)],
                        &pred[static_cast<std::size_t>(u)]}) {
        std::sort(adj->begin(), adj->end());
        adj->erase(std::unique(adj->begin(), adj->end()), adj->end());
      }
      const auto s = g.successors(u);
      const auto p = g.predecessors(u);
      EXPECT_EQ(std::vector<NodeId>(s.begin(), s.end()),
                succ[static_cast<std::size_t>(u)]);
      EXPECT_EQ(std::vector<NodeId>(p.begin(), p.end()),
                pred[static_cast<std::size_t>(u)]);
      for (NodeId v : succ[static_cast<std::size_t>(u)])
        EXPECT_TRUE(g.has_edge(u, v));
      EXPECT_FALSE(g.has_edge(u, u));
      edges += succ[static_cast<std::size_t>(u)].size();
    }
    EXPECT_EQ(g.num_nodes(), n);
    EXPECT_EQ(g.num_edges(), edges);
    const auto all = g.edges();
    EXPECT_EQ(all.size(), edges);
    EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
    // Handing the whole list to the constructor builds the same rows and
    // compacts the list to them.
    EXPECT_EQ(Digraph(n, added).edges(), all);
    EXPECT_EQ(added, all);
  }
}

}  // namespace
}  // namespace logstruct::graph
