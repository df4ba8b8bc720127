#include "trace/trace.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/csr.hpp"
#include "util/thread_pool.hpp"

namespace logstruct::trace {

// Blocked arms of the inline accessors in trace.hpp. Kept out of line
// (and never inlined) so the mem fast paths compile down to a predicted
// branch plus a direct vector load at every call site.
#if defined(__GNUC__) || defined(__clang__)
#define LS_NOINLINE __attribute__((noinline))
#else
#define LS_NOINLINE
#endif

LS_NOINLINE Event Trace::event_blocked(EventId id) const {
  return blocked_->events.get(static_cast<std::size_t>(id));
}

LS_NOINLINE SerialBlock Trace::block_blocked(BlockId id) const {
  return blocked_->blocks.get(static_cast<std::size_t>(id));
}

LS_NOINLINE storage::PinnedSpan<EventId> Trace::events_of_block_blocked(
    BlockId b) const {
  const auto lo = blocked_->block_ev_begin.get(static_cast<std::size_t>(b));
  const auto hi =
      blocked_->block_ev_begin.get(static_cast<std::size_t>(b) + 1);
  return blocked_->block_events.pin(static_cast<std::size_t>(lo),
                                    static_cast<std::size_t>(hi));
}

LS_NOINLINE std::int32_t Trace::dep_begin_blocked(std::size_t i) const {
  return blocked_->dep_begin.get(i);
}

LS_NOINLINE std::int64_t Trace::block_ev_begin_blocked(std::size_t i) const {
  return blocked_->block_ev_begin.get(i);
}

template <typename T>
LS_NOINLINE storage::PinnedSpan<T> Trace::pin_blocked(
    const storage::BlockedColumn<T>& col, std::int64_t lo, std::int64_t hi) {
  return col.pin(static_cast<std::size_t>(lo), static_cast<std::size_t>(hi));
}

template storage::PinnedSpan<std::int32_t> Trace::pin_blocked(
    const storage::BlockedColumn<std::int32_t>& col, std::int64_t lo,
    std::int64_t hi);

std::vector<EventId> Trace::events_by_time() const {
  std::vector<std::pair<TimeNs, EventId>> keys(
      static_cast<std::size_t>(num_events()));
  events().for_each_chunk(
      [&keys](const Event* ev, std::size_t n, std::size_t base) {
        for (std::size_t i = 0; i < n; ++i)
          keys[base + i] = {ev[i].time, static_cast<EventId>(base + i)};
      });
  std::sort(keys.begin(), keys.end());
  std::vector<EventId> order(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) order[i] = keys[i].second;
  return order;
}

storage::PinnedSpan<EventId> Trace::fanout(EventId send) const {
  const Event e = event(send);
  auto lo = static_cast<std::size_t>(
      dep_begin_at(static_cast<std::size_t>(send)));
  const auto hi = static_cast<std::size_t>(
      dep_begin_at(static_cast<std::size_t>(send) + 1));
  if (e.partner != kNone && lo < hi) ++lo;  // skip the partner row
  if (blocked_) return blocked_->dep_recv.pin(lo, hi);
  return {{}, dep_recv_.data() + lo, hi - lo};
}

storage::PinnedSpan<EventId> Trace::receivers(EventId send) const {
  LS_CHECK(event(send).kind == EventKind::Send);
  const auto lo = static_cast<std::size_t>(
      dep_begin_at(static_cast<std::size_t>(send)));
  const auto hi = static_cast<std::size_t>(
      dep_begin_at(static_cast<std::size_t>(send) + 1));
  if (blocked_) return blocked_->dep_recv.pin(lo, hi);
  return {{}, dep_recv_.data() + lo, hi - lo};
}

bool Trace::is_runtime_event(EventId id) const {
  const Event e = event(id);
  if (chares_[static_cast<std::size_t>(e.chare)].runtime) return true;
  if (e.partner != kNone) {
    const Event p = event(e.partner);
    if (chares_[static_cast<std::size_t>(p.chare)].runtime) return true;
  }
  if (e.kind == EventKind::Send) {
    for (EventId r : receivers(id)) {
      if (chares_[static_cast<std::size_t>(event(r).chare)].runtime)
        return true;
    }
  }
  return false;
}

std::int32_t Trace::num_degraded_chares() const {
  std::int32_t n = 0;
  for (std::uint8_t d : degraded_chare_) n += d != 0;
  return n;
}

void Trace::freeze(int threads) {
  OBS_SPAN(span, "trace/freeze");
  const storage::BackendKind backend = storage::default_options().kind;
  span.attr("backend", static_cast<std::int64_t>(backend));
  span.attr("events", static_cast<std::int64_t>(events_.size()));
  threads = util::resolve_threads(threads);

  // Caches shared by both backends, computed from the staging vectors.
  end_time_ = 0;
  for (const SerialBlock& b : blocks_) end_time_ = std::max(end_time_, b.end);
  for (const IdleSpan& s : idles_) end_time_ = std::max(end_time_, s.end);
  idle_total_.clear();
  for (const IdleSpan& s : idles_) {
    if (s.proc < 0) continue;
    if (idle_total_.size() <= static_cast<std::size_t>(s.proc))
      idle_total_.resize(static_cast<std::size_t>(s.proc) + 1, 0);
    idle_total_[static_cast<std::size_t>(s.proc)] += s.end - s.begin;
  }

  const std::size_t num_events = events_.size();
  const std::size_t num_blocks = blocks_.size();
  const std::size_t num_chares = chares_.size();
  const std::size_t num_procs = static_cast<std::size_t>(num_procs_);

  // Per-chare / per-PE block lists as flat CSR groupings: count, prefix
  // sum, then scatter in block-id order so each group starts id-sorted.
  // Both groupings share each scan of the blocks (and below, of the
  // events); util::csr_scatter, one key per call, would scan twice.
  chare_blocks_begin_.assign(num_chares + 1, 0);
  proc_blocks_begin_.assign(num_procs + 1, 0);
  for (const SerialBlock& b : blocks_) {
    ++chare_blocks_begin_[static_cast<std::size_t>(b.chare) + 1];
    if (b.proc >= 0 && b.proc < num_procs_)
      ++proc_blocks_begin_[static_cast<std::size_t>(b.proc) + 1];
  }
  for (std::size_t i = 1; i <= num_chares; ++i)
    chare_blocks_begin_[i] += chare_blocks_begin_[i - 1];
  for (std::size_t i = 1; i <= num_procs; ++i)
    proc_blocks_begin_[i] += proc_blocks_begin_[i - 1];
  chare_blocks_.assign(static_cast<std::size_t>(chare_blocks_begin_.back()),
                       0);
  proc_blocks_.assign(static_cast<std::size_t>(proc_blocks_begin_.back()), 0);
  {
    std::vector<std::int64_t> ccur(chare_blocks_begin_.begin(),
                                   chare_blocks_begin_.end() - 1);
    std::vector<std::int64_t> pcur(proc_blocks_begin_.begin(),
                                   proc_blocks_begin_.end() - 1);
    for (std::size_t b = 0; b < num_blocks; ++b) {
      const SerialBlock& blk = blocks_[b];
      chare_blocks_[static_cast<std::size_t>(
          ccur[static_cast<std::size_t>(blk.chare)]++)] =
          static_cast<BlockId>(b);
      if (blk.proc >= 0 && blk.proc < num_procs_)
        proc_blocks_[static_cast<std::size_t>(
            pcur[static_cast<std::size_t>(blk.proc)]++)] =
            static_cast<BlockId>(b);
    }
  }
  auto by_begin = [this](BlockId a, BlockId b) {
    const SerialBlock& ba = blocks_[static_cast<std::size_t>(a)];
    const SerialBlock& bb = blocks_[static_cast<std::size_t>(b)];
    if (ba.begin != bb.begin) return ba.begin < bb.begin;
    return a < b;
  };
  // Each group sorts independently (total-order comparators), so the
  // sort sweeps fan out per group with bit-identical results. Logs and
  // the simulators emit in time order, so the scatter usually leaves a
  // group sorted already; only the groups it did not are sorted.
  std::atomic<std::int64_t> sorted_groups{0};
  auto sort_group = [&sorted_groups](auto* group, std::int64_t lo,
                                     std::int64_t hi, const auto& less) {
    if (std::is_sorted(group + lo, group + hi, less)) return;
    std::sort(group + lo, group + hi, less);
    sorted_groups.fetch_add(1, std::memory_order_relaxed);
  };
  util::parallel_for(
      threads, static_cast<std::int64_t>(num_chares), [&](std::int64_t c) {
        sort_group(chare_blocks_.data(), chare_blocks_begin_[c],
                   chare_blocks_begin_[c + 1], by_begin);
      });
  util::parallel_for(
      threads, static_cast<std::int64_t>(num_procs), [&](std::int64_t p) {
        sort_group(proc_blocks_.data(), proc_blocks_begin_[p],
                   proc_blocks_begin_[p + 1], by_begin);
      });

  // Per-chare and per-block event lists, same count / scatter / per-group
  // sort recipe keyed by the event's chare and owning block.
  chare_events_begin_.assign(num_chares + 1, 0);
  block_ev_begin_.assign(num_blocks + 1, 0);
  for (const Event& e : events_) {
    ++chare_events_begin_[static_cast<std::size_t>(e.chare) + 1];
    if (e.block != kNone)
      ++block_ev_begin_[static_cast<std::size_t>(e.block) + 1];
  }
  for (std::size_t i = 1; i <= num_chares; ++i)
    chare_events_begin_[i] += chare_events_begin_[i - 1];
  for (std::size_t i = 1; i <= num_blocks; ++i)
    block_ev_begin_[i] += block_ev_begin_[i - 1];
  chare_events_.assign(static_cast<std::size_t>(chare_events_begin_.back()),
                       0);
  block_events_.assign(static_cast<std::size_t>(block_ev_begin_.back()), 0);
  {
    std::vector<std::int64_t> ccur(chare_events_begin_.begin(),
                                   chare_events_begin_.end() - 1);
    std::vector<std::int64_t> bcur(block_ev_begin_.begin(),
                                   block_ev_begin_.end() - 1);
    for (std::size_t e = 0; e < num_events; ++e) {
      const Event& ev = events_[e];
      chare_events_[static_cast<std::size_t>(
          ccur[static_cast<std::size_t>(ev.chare)]++)] =
          static_cast<EventId>(e);
      if (ev.block != kNone)
        block_events_[static_cast<std::size_t>(
            bcur[static_cast<std::size_t>(ev.block)]++)] =
            static_cast<EventId>(e);
    }
  }
  auto by_time = [this](EventId a, EventId b) { return before(a, b); };
  util::parallel_for(
      threads, static_cast<std::int64_t>(num_chares), [&](std::int64_t c) {
        sort_group(chare_events_.data(), chare_events_begin_[c],
                   chare_events_begin_[c + 1], by_time);
      });
  util::parallel_for(
      threads, static_cast<std::int64_t>(num_blocks), [&](std::int64_t b) {
        sort_group(block_events_.data(), block_ev_begin_[b],
                   block_ev_begin_[b + 1], by_time);
      });
  OBS_COUNTER_ADD("trace/freeze/sorted_groups", sorted_groups.load());

  // Flat dependency table, rebuilt entirely from the recv-side partner
  // fields: every recv naming send s is one row of s, in recv-id order.
  // The partner recv is always the lowest id (first matched), so the p2p
  // prefix comes out grouped by send with the Match row first and the
  // fanout rows after — the historical enumeration order exactly.
  // dep_begin_ indexes the prefix CSR-style so receivers() is a span
  // lookup; collective cross-product rows follow.
  util::csr_scatter(
      num_events,
      [&](auto emit) {
        for (std::size_t r = 0; r < num_events; ++r) {
          const Event& e = events_[r];
          emit(e.kind == EventKind::Recv ? e.partner : kNone, r);
        }
      },
      dep_begin_, dep_recv_);

  std::int64_t coll_rows = 0;
  for (const Collective& coll : collectives_)
    coll_rows += static_cast<std::int64_t>(coll.sends.size()) *
                 static_cast<std::int64_t>(coll.recvs.size());
  const auto p2p_rows = static_cast<std::int64_t>(dep_begin_[num_events]);
  const auto rows = static_cast<std::size_t>(p2p_rows + coll_rows);
  // Reserving first keeps the table exact-size: growing by resize would
  // over-allocate.
  dep_recv_.reserve(rows);
  dep_recv_.resize(rows);
  dep_send_.resize(rows);
  dep_kind_.resize(rows);
  for (std::size_t s = 0; s < num_events; ++s) {
    for (auto at = static_cast<std::size_t>(dep_begin_[s]);
         at < static_cast<std::size_t>(dep_begin_[s + 1]); ++at) {
      dep_send_[at] = static_cast<EventId>(s);
      dep_kind_[at] = events_[s].partner == dep_recv_[at] ? DepKind::Match
                                                          : DepKind::Fanout;
    }
  }
  // Collective cross-product rows follow the CSR prefix; serial, they
  // are a small tail.
  auto at = static_cast<std::size_t>(p2p_rows);
  for (const Collective& coll : collectives_) {
    for (EventId s : coll.sends) {
      for (EventId r : coll.recvs) {
        dep_send_[at] = s;
        dep_recv_[at] = r;
        dep_kind_[at] = DepKind::Collective;
        ++at;
      }
    }
  }

  // Memory accounting for the frozen table: the dominant per-trace
  // allocation after events themselves. A gauge (not a counter) because
  // re-freezing a bigger trace should report the new footprint.
  OBS_GAUGE_SET(
      "trace/dep_table_bytes",
      static_cast<std::int64_t>(
          dep_send_.capacity() * sizeof(EventId) +
          dep_recv_.capacity() * sizeof(EventId) +
          dep_kind_.capacity() * sizeof(DepKind) +
          dep_begin_.capacity() * sizeof(std::int32_t)));

  if (backend == storage::BackendKind::Blocked)
    storage::spill_to_blocked(*this);
}

}  // namespace logstruct::trace
