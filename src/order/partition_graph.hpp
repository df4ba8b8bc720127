#pragma once

/// \file partition_graph.hpp
/// The partition graph G_P(V, E) the phase-finding stage operates on.
///
/// Vertices are partitions (sets of dependency events); directed edges are
/// happened-before relations. All of the paper's merge passes reduce to:
/// schedule a batch of pair merges, apply them (batched union-find, applied
/// in place), and collapse any strongly connected components ("cycle
/// merge") so the graph is a DAG again.
///
/// finalize() is handed the trace's time order (Trace::by_time(), which
/// OrderContext::by_time() forwards in the pipeline), and it
/// and every merge rebuild the event and chare lists from part_of() with
/// one builder — a counting scatter of that order plus one walk of the
/// per-chare event lists — so no merge compares timestamps. The edge list
/// is a flat vector remapped in place; the adjacency (dag(), a CSR
/// graph::Digraph) is rebuilt lazily — deferred edge compaction — only
/// when a query needs it after a mutation. Partition
/// ids keep the exact historical relabeling semantics (union-find dense
/// labels for pair merges, Tarjan component order for cycle merges), so
/// downstream tie-breaks are bit-identical to the old implementation.
///
/// Thread-safety: concurrent const queries are safe, including dag() —
/// its lazy materialization is guarded by a double-checked atomic flag
/// and mutex, so any number of readers may race the first rebuild.
/// Mutations (apply_merges, cycle_merge, add_edges_bulk) still require
/// exclusive access, like a standard container.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "trace/trace.hpp"

namespace logstruct::order {

using PartId = std::int32_t;

class PartitionGraph {
 public:
  explicit PartitionGraph(const trace::Trace& trace);

  /// Construction: add a partition owning `events`.
  PartId add_partition(std::span<const trace::EventId> events, bool runtime);

  /// Construction: record a happened-before edge (self-edges ignored).
  void add_edge(PartId from, PartId to);

  /// Must be called after the last add_partition/add_edge and before any
  /// query or merge. `by_time` is every event in Trace::before order; the
  /// graph keeps a view of it, so it must outlive the graph.
  void finalize(std::span<const trace::EventId> by_time);

  // --- queries ------------------------------------------------------------
  [[nodiscard]] std::int32_t num_partitions() const {
    return static_cast<std::int32_t>(runtime_.size());
  }
  /// Events of p in Trace::before order.
  [[nodiscard]] std::span<const trace::EventId> events(PartId p) const {
    return {events_.data() + event_begin_[static_cast<std::size_t>(p)],
            events_.data() + event_begin_[static_cast<std::size_t>(p) + 1]};
  }
  [[nodiscard]] bool runtime(PartId p) const {
    return runtime_[static_cast<std::size_t>(p)];
  }
  /// Sorted unique chares with events in p.
  [[nodiscard]] std::span<const trace::ChareId> chares(PartId p) const {
    return {chares_.data() + chare_begin_[static_cast<std::size_t>(p)],
            chares_.data() + chare_begin_[static_cast<std::size_t>(p) + 1]};
  }
  [[nodiscard]] PartId part_of(trace::EventId e) const {
    return part_of_[static_cast<std::size_t>(e)];
  }
  /// Deduplicated adjacency over the current partitions. Rebuilt lazily
  /// after mutations; cheap to call repeatedly between them. Safe to
  /// call from concurrent readers: the first caller materializes under
  /// a lock, the rest see the published result.
  [[nodiscard]] const graph::Digraph& dag() const {
    ensure_dag();
    return dag_;
  }
  [[nodiscard]] const trace::Trace& trace() const { return *trace_; }

  /// First event of chare c inside partition p (kNone if c has none).
  /// "Initial source" queries of §3.1.4 build on this.
  [[nodiscard]] trace::EventId first_event_of_chare(PartId p,
                                                    trace::ChareId c) const;

  // --- mutation -----------------------------------------------------------
  /// Apply a batch of scheduled merges; invalidates partition ids.
  /// Returns true if anything merged.
  bool apply_merges(std::span<const std::pair<PartId, PartId>> pairs);

  /// Merge every SCC into a single partition. Returns true if anything
  /// merged. Afterwards dag() is acyclic.
  bool cycle_merge();

  /// Add happened-before edges after construction (deduplicated lazily).
  void add_edges_bulk(std::span<const std::pair<PartId, PartId>> edges);

  /// Total merges applied so far (for pipeline statistics).
  [[nodiscard]] std::int64_t merges_applied() const { return merges_; }

  /// Heap bytes reserved by the flat edge vector (capacity, not size):
  /// the deferred-compaction design means capacity is the honest cost.
  /// Feeds the `order/partition_graph/edge_capacity_bytes` gauge.
  [[nodiscard]] std::int64_t edge_capacity_bytes() const {
    return static_cast<std::int64_t>(edges_.capacity() *
                                     sizeof(std::pair<PartId, PartId>));
  }

  /// Approximate total container footprint (membership, part_of, edges;
  /// capacities). Feeds `order/partition_graph/footprint_bytes`.
  [[nodiscard]] std::int64_t memory_bytes() const;

  /// Structural version counter: bumped by every mutation that can change
  /// partition ids, membership, or reachability. Caches of derived values
  /// (leaps, condensations, leap groups) key on this to know when to
  /// recompute. 0 only before finalize().
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

 private:
  /// Collapse partitions: partition p becomes label[p]. Labels must be
  /// dense [0, num_new) and order-preserving per the caller's semantics.
  void relabel(const std::vector<std::int32_t>& label, std::int32_t num_new);
  /// Rebuild the membership rows from part_of_ (finalize and relabel).
  void build_membership();
  void ensure_dag() const;

  const trace::Trace* trace_;
  /// Every event in Trace::before order, handed over at finalize().
  std::span<const trace::EventId> by_time_;
  /// Membership rows: p owns events_[event_begin_[p], event_begin_[p + 1])
  /// and chares_[chare_begin_[p], chare_begin_[p + 1]).
  std::vector<std::int32_t> event_begin_;
  std::vector<trace::EventId> events_;
  std::vector<std::int32_t> chare_begin_;
  std::vector<trace::ChareId> chares_;
  std::vector<bool> runtime_;
  std::vector<PartId> part_of_;
  /// Guard for the lazy dag_ rebuild: double-checked atomic dirty flag
  /// plus the mutex the winning reader materializes under. Copyable so
  /// PartitionGraph keeps value semantics — a copy takes the flag value
  /// and a fresh mutex.
  struct DagGuard {
    std::atomic<bool> dirty{true};
    std::mutex mu;
    DagGuard() = default;
    DagGuard(const DagGuard& o) : dirty(o.dirty.load()) {}
    DagGuard& operator=(const DagGuard& o) {
      dirty.store(o.dirty.load());
      return *this;
    }
  };

  // Flat happened-before edge list (may contain duplicates between
  // compactions); dag_ is materialized from it on demand.
  mutable std::vector<std::pair<PartId, PartId>> edges_;
  mutable graph::Digraph dag_;
  mutable DagGuard dag_guard_;
  bool finalized_ = false;
  std::int64_t merges_ = 0;
  std::uint64_t epoch_ = 0;
};

}  // namespace logstruct::order
