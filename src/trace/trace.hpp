#pragma once

/// \file trace.hpp
/// Immutable event trace container over a pluggable storage backend.
///
/// A Trace is produced by a TraceBuilder (fed by the simulators) or by
/// build_trace() (fed by the readers) and then frozen; the ordering
/// pipeline and metrics only read it. Freezing materializes flat columnar tables — events, blocks,
/// idles, the SoA dependency table with its CSR `dep_begin_` index, and
/// CSR groupings per block / chare / processor — behind one of two
/// backends (trace/storage/options.hpp):
///  - mem: the columns live in std::vector, exactly the historical
///    layout, zero overhead;
///  - blocked: freezing builds the same vectors, writes them into an
///    unlinked `.lsblk` container with the `write_blocked_file` column
///    writer, and releases them; reads come back through the
///    process-wide block cache as pinned views.
/// Accessors return backend-neutral types: storage::ColumnView for whole
/// columns, storage::PinnedSpan for contiguous ranges, records by value.
/// Both backends produce bit-identical logical content — the golden
/// structure-hash suite runs the matrix.
///
/// A frozen trace also memoizes the read-only views every analysis
/// derives from it — the time order, the sub-block frame and the
/// incoming-dependency view — each built at most once, on first use,
/// under its own once-flag, so concurrent readers share one build.
/// Copies share the memo (their content is the same); freeze() starts a
/// fresh one.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "trace/event.hpp"
#include "trace/ids.hpp"
#include "trace/storage/blocked_data.hpp"
#include "trace/storage/options.hpp"

namespace logstruct::trace {

class TraceBuilder;
class Trace;
class IncomingDeps;
struct RawTrace;
struct SubblockFrame;

/// Declared here for friendship; see skew.hpp / repair.hpp.
Trace apply_clock_skew(const Trace& trace, std::span<const TimeNs> delta);
Trace build_trace(RawTrace&& raw, int threads);

namespace storage {
/// Declared here for friendship; see trace/storage/blocked_trace.hpp.
void spill_to_blocked(Trace& trace);
Trace open_blocked_trace(const std::string& path);
void write_blocked_file(const Trace& trace, const std::string& path,
                        std::uint32_t block_bytes);
std::string serialize_trace_metadata(const Trace& trace);
void deserialize_trace_metadata(const std::string& blob, Trace& trace);
std::uint64_t trace_structure_hash(const Trace& trace);
}  // namespace storage

class Trace {
 public:
  Trace();

  // --- table access ---------------------------------------------------
  [[nodiscard]] storage::ColumnView<Event> events() const {
    if (blocked_) return storage::ColumnView<Event>(&blocked_->events);
    return {events_.data(), events_.size()};
  }
  [[nodiscard]] storage::ColumnView<SerialBlock> blocks() const {
    if (blocked_) return storage::ColumnView<SerialBlock>(&blocked_->blocks);
    return {blocks_.data(), blocks_.size()};
  }
  [[nodiscard]] storage::ColumnView<IdleSpan> idles() const {
    if (blocked_) return storage::ColumnView<IdleSpan>(&blocked_->idles);
    return {idles_.data(), idles_.size()};
  }
  [[nodiscard]] std::span<const ChareInfo> chares() const { return chares_; }
  [[nodiscard]] std::span<const ArrayInfo> arrays() const { return arrays_; }
  [[nodiscard]] std::span<const EntryInfo> entries() const { return entries_; }
  [[nodiscard]] std::span<const Collective> collectives() const {
    return collectives_;
  }

  // The per-row accessors keep the mem arm small enough to always
  // inline (a predicted branch plus a vector load the optimizer can
  // scalarize); the blocked arms live out of line in trace.cpp, so hot
  // loops on the default backend pay nothing for the seam.
  [[nodiscard]] Event event(EventId id) const {
    if (blocked_) [[unlikely]] return event_blocked(id);
    return events_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] SerialBlock block(BlockId id) const {
    if (blocked_) [[unlikely]] return block_blocked(id);
    return blocks_[static_cast<std::size_t>(id)];
  }
  /// Just the event's timestamp — the field sort comparators key on;
  /// loads one word on the mem backend instead of copying the row.
  [[nodiscard]] TimeNs event_time(EventId id) const {
    if (blocked_) [[unlikely]] return event_blocked(id).time;
    return events_[static_cast<std::size_t>(id)].time;
  }
  /// The one by-time event order: (time, id). Every event sort and
  /// "earliest event" choice goes through it, so ties break identically
  /// everywhere.
  [[nodiscard]] bool before(EventId a, EventId b) const {
    const TimeNs ta = event_time(a);
    const TimeNs tb = event_time(b);
    return ta != tb ? ta < tb : a < b;
  }

  // --- derived views: built once per trace on first use, then shared ---
  /// Every event id in before() order, from one sequential read of the
  /// event column and an in-RAM sort of (time, id) keys.
  [[nodiscard]] const std::vector<EventId>& by_time() const;
  /// The sub-block decomposition (trace/subblock.hpp), from one Events
  /// and one Blocks column scan that walks each block's event list.
  [[nodiscard]] const SubblockFrame& subblock_frame() const;
  /// Each receive's senders (trace/depview.hpp), from one pass over the
  /// dependency table.
  [[nodiscard]] const IncomingDeps& incoming_deps() const;
  [[nodiscard]] const ChareInfo& chare(ChareId id) const {
    return chares_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const EntryInfo& entry(EntryId id) const {
    return entries_[static_cast<std::size_t>(id)];
  }

  [[nodiscard]] std::int32_t num_procs() const { return num_procs_; }
  [[nodiscard]] std::int32_t num_events() const {
    return static_cast<std::int32_t>(blocked_ ? blocked_->events.size()
                                              : events_.size());
  }
  [[nodiscard]] std::int32_t num_blocks() const {
    return static_cast<std::int32_t>(blocked_ ? blocked_->blocks.size()
                                              : blocks_.size());
  }
  [[nodiscard]] std::int32_t num_chares() const {
    return static_cast<std::int32_t>(chares_.size());
  }

  /// Which backend serves this trace (storage::BackendKind).
  [[nodiscard]] storage::BackendKind storage_backend() const {
    return blocked_ ? storage::BackendKind::Blocked
                    : storage::BackendKind::Mem;
  }

  // --- derived relations ----------------------------------------------
  /// Additional receivers of a broadcast send (beyond Event::partner).
  [[nodiscard]] storage::PinnedSpan<EventId> fanout(EventId send) const;

  /// All receivers of a send: partner plus fanout, in recv-id order (the
  /// partner is always the lowest). Empty if unmatched.
  [[nodiscard]] storage::PinnedSpan<EventId> receivers(EventId send) const;

  // --- flat dependency table (frozen; SoA) ----------------------------
  /// Number of rows: one per point-to-point match, broadcast fan-out
  /// receiver, and collective sends x recvs pair.
  [[nodiscard]] std::int64_t num_dependencies() const {
    return static_cast<std::int64_t>(blocked_ ? blocked_->dep_send.size()
                                              : dep_send_.size());
  }
  /// Column of sending event ids, one per dependency row.
  [[nodiscard]] storage::ColumnView<EventId> dep_sends() const {
    if (blocked_) return storage::ColumnView<EventId>(&blocked_->dep_send);
    return {dep_send_.data(), dep_send_.size()};
  }
  /// Column of receiving event ids, aligned with dep_sends().
  [[nodiscard]] storage::ColumnView<EventId> dep_recvs() const {
    if (blocked_) return storage::ColumnView<EventId>(&blocked_->dep_recv);
    return {dep_recv_.data(), dep_recv_.size()};
  }
  /// Column of row provenance kinds, aligned with dep_sends().
  [[nodiscard]] storage::ColumnView<DepKind> dep_kinds() const {
    if (blocked_) return storage::ColumnView<DepKind>(&blocked_->dep_kind);
    return {dep_kind_.data(), dep_kind_.size()};
  }

  /// Invoke fn(send_event, recv_event) for every traced control dependency:
  /// point-to-point matches, broadcast fan-outs, and the cross product of
  /// each collective's sends x recvs. Rows stream from the flat table
  /// (chunk-at-a-time under the blocked backend), so the callback is
  /// statically dispatched (no std::function).
  template <typename Fn>
  void for_each_dependency(Fn&& fn) const {
    if (!blocked_) {
      const EventId* send = dep_send_.data();
      const EventId* recv = dep_recv_.data();
      for (std::size_t i = 0, n = dep_send_.size(); i < n; ++i)
        fn(send[i], recv[i]);
      return;
    }
    const storage::BlockedColumn<EventId>& recvs = blocked_->dep_recv;
    blocked_->dep_send.for_each_chunk(
        [&](const EventId* send, std::size_t n, std::size_t base) {
          storage::PinnedSpan<EventId> recv = recvs.pin(base, base + n);
          for (std::size_t i = 0; i < n; ++i) fn(send[i], recv[i]);
        });
  }

  /// Blocks of a chare in begin-time order.
  [[nodiscard]] storage::PinnedSpan<BlockId> blocks_of_chare(ChareId c) const {
    const auto lo = chare_blocks_begin_[static_cast<std::size_t>(c)];
    const auto hi = chare_blocks_begin_[static_cast<std::size_t>(c) + 1];
    if (blocked_) [[unlikely]]
      return pin_blocked(blocked_->chare_blocks, lo, hi);
    return {{}, chare_blocks_.data() + lo, static_cast<std::size_t>(hi - lo)};
  }

  /// Blocks on a processor in begin-time order.
  [[nodiscard]] storage::PinnedSpan<BlockId> blocks_of_proc(ProcId p) const {
    const auto lo = proc_blocks_begin_[static_cast<std::size_t>(p)];
    const auto hi = proc_blocks_begin_[static_cast<std::size_t>(p) + 1];
    if (blocked_) [[unlikely]]
      return pin_blocked(blocked_->proc_blocks, lo, hi);
    return {{}, proc_blocks_.data() + lo, static_cast<std::size_t>(hi - lo)};
  }

  /// Events of one serial block in physical-time order (ties by id).
  [[nodiscard]] storage::PinnedSpan<EventId> events_of_block(BlockId b) const {
    if (blocked_) [[unlikely]] return events_of_block_blocked(b);
    const auto lo = block_ev_begin_[static_cast<std::size_t>(b)];
    const auto hi = block_ev_begin_[static_cast<std::size_t>(b) + 1];
    return {{}, block_events_.data() + lo, static_cast<std::size_t>(hi - lo)};
  }

  /// True iff the event touches the runtime: its own chare is a runtime
  /// chare, or its traced partner's chare is (paper §3.1: partitions with
  /// such dependencies are runtime partitions).
  [[nodiscard]] bool is_runtime_event(EventId id) const;

  // --- recovery provenance ----------------------------------------------
  /// True iff trace-level recovery (trace::repair / a recovering reader)
  /// altered this chare's dependencies — dropped a partner, removed an
  /// event or block. Downstream passes quarantine such chares instead of
  /// trusting their structure (order::PhaseResult::degraded).
  [[nodiscard]] bool is_degraded_chare(ChareId id) const {
    return !degraded_chare_.empty() &&
           degraded_chare_[static_cast<std::size_t>(id)] != 0;
  }

  /// Number of chares flagged degraded by recovery (0 for clean traces).
  [[nodiscard]] std::int32_t num_degraded_chares() const;

  /// Events per chare in physical-time order (ties broken by id).
  [[nodiscard]] storage::PinnedSpan<EventId> events_of_chare(ChareId c) const {
    const auto lo = chare_events_begin_[static_cast<std::size_t>(c)];
    const auto hi = chare_events_begin_[static_cast<std::size_t>(c) + 1];
    if (blocked_) [[unlikely]]
      return pin_blocked(blocked_->chare_events, lo, hi);
    return {{}, chare_events_.data() + lo, static_cast<std::size_t>(hi - lo)};
  }

  /// Total recorded idle on one processor (cached at freeze).
  [[nodiscard]] TimeNs total_idle(ProcId p) const {
    const auto i = static_cast<std::size_t>(p);
    return i < idle_total_.size() ? idle_total_[i] : 0;
  }

  /// Latest timestamp in the trace (block ends and idle ends included;
  /// cached at freeze).
  [[nodiscard]] TimeNs end_time() const { return end_time_; }

 private:
  friend class TraceBuilder;
  friend Trace apply_clock_skew(const Trace& trace,
                                std::span<const TimeNs> delta);
  friend Trace build_trace(RawTrace&& raw, int threads);
  friend void storage::spill_to_blocked(Trace& trace);
  friend Trace storage::open_blocked_trace(const std::string& path);
  friend void storage::write_blocked_file(const Trace& trace,
                                          const std::string& path,
                                          std::uint32_t block_bytes);
  friend std::string storage::serialize_trace_metadata(const Trace& trace);
  friend void storage::deserialize_trace_metadata(const std::string& blob,
                                                  Trace& trace);
  friend std::uint64_t storage::trace_structure_hash(const Trace& trace);

  /// Build derived indices and caches in the vectors below, then, when
  /// storage::default_options() selects the blocked backend, spill them
  /// to a store; called once by TraceBuilder::finish(). `threads` fans
  /// the sorts out over the shared pool (0 = util::default_parallelism());
  /// the frozen trace is bit-identical for any value and for either
  /// backend.
  void freeze(int threads = 0);

  [[nodiscard]] std::int32_t dep_begin_at(std::size_t i) const {
    if (blocked_) [[unlikely]] return dep_begin_blocked(i);
    return dep_begin_[i];
  }
  [[nodiscard]] std::int64_t block_ev_begin_at(std::size_t i) const {
    if (blocked_) [[unlikely]] return block_ev_begin_blocked(i);
    return block_ev_begin_[i];
  }

  // Out-of-line blocked arms of the inline accessors above (trace.cpp);
  // never inlined so the mem fast paths stay call-free.
  [[nodiscard]] Event event_blocked(EventId id) const;
  [[nodiscard]] SerialBlock block_blocked(BlockId id) const;
  [[nodiscard]] storage::PinnedSpan<EventId> events_of_block_blocked(
      BlockId b) const;
  [[nodiscard]] std::int32_t dep_begin_blocked(std::size_t i) const;
  [[nodiscard]] std::int64_t block_ev_begin_blocked(std::size_t i) const;
  template <typename T>
  [[nodiscard]] static storage::PinnedSpan<T> pin_blocked(
      const storage::BlockedColumn<T>& col, std::int64_t lo, std::int64_t hi);

  // Metadata tables: RAM-resident under both backends (small, string-
  // bearing, O(chares + entries), not O(events)).
  std::vector<ChareInfo> chares_;
  std::vector<ArrayInfo> arrays_;
  std::vector<EntryInfo> entries_;
  std::vector<Collective> collectives_;
  std::int32_t num_procs_ = 0;

  /// Per chare, 1 iff recovery repaired its dependencies away; empty for
  /// traces that never went through repair (the common case).
  std::vector<std::uint8_t> degraded_chare_;

  // Freeze-time caches (both backends).
  TimeNs end_time_ = 0;
  std::vector<TimeNs> idle_total_;  ///< per processor

  // Small CSR begin arrays, RAM-resident under both backends
  // (O(chares + procs), and hot in every partition-graph walk).
  std::vector<std::int64_t> chare_blocks_begin_;
  std::vector<std::int64_t> proc_blocks_begin_;
  std::vector<std::int64_t> chare_events_begin_;

  // Primary and derived flat columns. The blocked backend builds them
  // too and releases them once spill_to_blocked has written them out.
  std::vector<Event> events_;
  std::vector<SerialBlock> blocks_;
  std::vector<IdleSpan> idles_;

  std::vector<BlockId> chare_blocks_;
  std::vector<BlockId> proc_blocks_;
  std::vector<EventId> chare_events_;
  std::vector<EventId> block_events_;
  std::vector<std::int64_t> block_ev_begin_;  ///< blocks + 1

  // Flat dependency table. The point-to-point prefix is grouped by send
  // id (partner row first, then fanout rows in recv-id order), so
  // dep_begin_ is a CSR index over it:
  // receivers(s) = dep_recv_[dep_begin_[s]..dep_begin_[s+1]).
  // Collective cross-product rows follow the p2p prefix.
  std::vector<EventId> dep_send_;
  std::vector<EventId> dep_recv_;
  std::vector<DepKind> dep_kind_;
  std::vector<std::int32_t> dep_begin_;  ///< events + 1

  /// Blocked backend; nullptr under mem. Shared: copies of a Trace
  /// reference the same immutable store.
  std::shared_ptr<storage::BlockedTraceData> blocked_;

  /// The derived views' memo (trace.cpp); shared by copies, replaced by
  /// freeze().
  struct Derived;
  std::shared_ptr<Derived> derived_;
};

}  // namespace logstruct::trace
