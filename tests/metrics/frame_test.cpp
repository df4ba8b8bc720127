/// \file frame_test.cpp
/// The trace's derived views — the time order, the sub-block frame and
/// the incoming-dependency view — against the derivations they replaced,
/// kept here as the reference: the (time, id) key sort, the per-block gap
/// walk over events_of_block() with its trigger pass, and the critical
/// path kernel that read both plus trace.event() per event. On the 12
/// goldens x {mem, blocked at 4 KiB} x threads {1, 4} the views equal the
/// reference and the six kernels reproduce their recorded fingerprints;
/// the same holds for a trace with a blockless event and for a skewed
/// copy of a trace whose views were already built. Each view is built
/// once per analysis, and concurrent kernels on a fresh trace share one
/// build and match the serial outputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "../order/golden_fixtures.hpp"
#include "metrics/critical_path.hpp"
#include "metrics/duration.hpp"
#include "metrics/efficiency.hpp"
#include "metrics/idle.hpp"
#include "metrics/imbalance.hpp"
#include "metrics/lateness.hpp"
#include "metrics/windows.hpp"
#include "obs/registry.hpp"
#include "order/stepping.hpp"
#include "trace/builder.hpp"
#include "trace/depview.hpp"
#include "trace/skew.hpp"
#include "trace/storage/block_store.hpp"
#include "trace/storage/blocked_trace.hpp"
#include "trace/storage/options.hpp"
#include "trace/subblock.hpp"

namespace logstruct::metrics {
namespace {

using order::golden::Fnv;
using order::golden::kGoldens;
using order::golden::ScopedDefaultParallelism;
using trace::EventId;
using trace::TimeNs;
using trace::storage::BackendKind;
using trace::storage::ScopedStorageOptions;
using trace::storage::StorageOptions;

// --- the reference: what each kernel derived for itself ------------------

/// Every event id in (time, id) order from one key sort.
std::vector<EventId> ref_by_time(const trace::Trace& t) {
  std::vector<std::pair<TimeNs, EventId>> keys;
  for (EventId e = 0; e < t.num_events(); ++e)
    keys.emplace_back(t.event_time(e), e);
  std::sort(keys.begin(), keys.end());
  std::vector<EventId> order;
  for (const auto& k : keys) order.push_back(k.second);
  return order;
}

/// The per-block gap walk: gap[e] from the previous event of e's block
/// (or its begin), tail[b] = block b's last event and the span after it.
struct RefGaps {
  struct Tail {
    EventId last = trace::kNone;
    TimeNs span = 0;
  };
  std::vector<TimeNs> gap;
  std::vector<Tail> tail;
};
RefGaps ref_block_gaps(const trace::Trace& t) {
  RefGaps out;
  out.gap.assign(static_cast<std::size_t>(t.num_events()), 0);
  out.tail.resize(static_cast<std::size_t>(t.num_blocks()));
  for (trace::BlockId b = 0; b < t.num_blocks(); ++b) {
    const trace::SerialBlock blk = t.block(b);
    const auto bev = t.events_of_block(b);
    if (bev.empty()) continue;
    TimeNs prev = blk.begin;
    for (EventId e : bev) {
      out.gap[static_cast<std::size_t>(e)] = t.event_time(e) - prev;
      prev = t.event_time(e);
    }
    out.tail[static_cast<std::size_t>(b)] = {bev.back(), blk.end - prev};
  }
  return out;
}

/// Gaps plus each positive tail, charged to the trigger or the last event.
std::vector<TimeNs> ref_subblock_durations(const trace::Trace& t) {
  RefGaps g = ref_block_gaps(t);
  for (trace::BlockId b = 0; b < t.num_blocks(); ++b) {
    const RefGaps::Tail tail = g.tail[static_cast<std::size_t>(b)];
    if (tail.span <= 0) continue;
    const EventId trigger = t.block(b).trigger;
    const EventId owner = trigger != trace::kNone ? trigger : tail.last;
    g.gap[static_cast<std::size_t>(owner)] += tail.span;
  }
  return std::move(g.gap);
}

/// The critical path kernel as it read the trace before the frame.
CriticalPath ref_critical_path(const trace::Trace& t,
                               const order::LogicalStructure& ls) {
  CriticalPath out;
  out.degraded_phases = ls.phases.degraded_phases;
  const auto n = static_cast<std::size_t>(t.num_events());
  if (n == 0) return out;
  const RefGaps gaps = ref_block_gaps(t);
  auto tail = [&gaps](EventId e, trace::BlockId block) {
    if (block == trace::kNone) return TimeNs{0};
    const RefGaps::Tail& tl = gaps.tail[static_cast<std::size_t>(block)];
    return tl.last == e ? tl.span : 0;
  };
  std::vector<TimeNs> dist_at(n, 0);
  std::vector<EventId> pred(n, trace::kNone);
  std::vector<EventId> last_on_chare(
      static_cast<std::size_t>(t.num_chares()), trace::kNone);
  std::vector<TimeNs> full_on_chare(static_cast<std::size_t>(t.num_chares()),
                                    0);
  const trace::IncomingDeps deps(t);
  EventId best = trace::kNone;
  TimeNs best_full = 0;
  for (EventId e : ref_by_time(t)) {
    const trace::Event ev = t.event(e);
    TimeNs incoming = 0;
    EventId from = trace::kNone;
    const auto c = static_cast<std::size_t>(ev.chare);
    if (last_on_chare[c] != trace::kNone) {
      incoming = full_on_chare[c];
      from = last_on_chare[c];
    }
    for (EventId s : deps.senders(e)) {
      const TimeNs via =
          dist_at[static_cast<std::size_t>(s)] + ev.time - t.event_time(s);
      if (via > incoming) {
        incoming = via;
        from = s;
      }
    }
    const TimeNs at = incoming + gaps.gap[static_cast<std::size_t>(e)];
    const TimeNs full = at + tail(e, ev.block);
    dist_at[static_cast<std::size_t>(e)] = at;
    pred[static_cast<std::size_t>(e)] = from;
    last_on_chare[c] = e;
    full_on_chare[c] = full;
    if (best == trace::kNone || full > best_full) {
      best = e;
      best_full = full;
    }
  }
  for (EventId e = best; e != trace::kNone;
       e = pred[static_cast<std::size_t>(e)])
    out.events.push_back(e);
  std::reverse(out.events.begin(), out.events.end());
  out.length_ns = best_full;
  out.coverage = static_cast<double>(out.length_ns) /
                 static_cast<double>(std::max<TimeNs>(t.end_time(), 1));
  out.chare_share.assign(static_cast<std::size_t>(t.num_chares()), 0);
  for (std::size_t i = 0; i < out.events.size(); ++i) {
    const EventId e = out.events[i];
    TimeNs share = gaps.gap[static_cast<std::size_t>(e)];
    bool left_by_message = false;
    if (i + 1 < out.events.size() &&
        t.event(out.events[i + 1]).kind == trace::EventKind::Recv) {
      auto senders = deps.senders(out.events[i + 1]);
      left_by_message =
          std::find(senders.begin(), senders.end(), e) != senders.end();
    }
    const trace::Event ev = t.event(e);
    if (!left_by_message) share += tail(e, ev.block);
    out.chare_share[static_cast<std::size_t>(ev.chare)] += share;
  }
  return out;
}

void expect_same_path(const CriticalPath& a, const CriticalPath& b) {
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.chare_share, b.chare_share);
  EXPECT_EQ(a.length_ns, b.length_ns);
  EXPECT_EQ(std::bit_cast<std::int64_t>(a.coverage),
            std::bit_cast<std::int64_t>(b.coverage));
}

/// The views against the reference: the time order, every event's
/// duration, gap, last-event flag and trailing span, every block's tail.
void expect_views_match_reference(const trace::Trace& t) {
  EXPECT_EQ(t.by_time(), ref_by_time(t));
  const trace::SubblockFrame& f = t.subblock_frame();
  EXPECT_EQ(f.duration, ref_subblock_durations(t));
  const RefGaps g = ref_block_gaps(t);
  ASSERT_EQ(f.tail.size(), g.tail.size());
  for (std::size_t b = 0; b < g.tail.size(); ++b)
    EXPECT_EQ(f.tail[b], g.tail[b].span) << "block " << b;
  for (EventId e = 0; e < t.num_events(); ++e) {
    const trace::BlockId b = t.event(e).block;
    const bool last =
        b != trace::kNone && g.tail[static_cast<std::size_t>(b)].last == e;
    EXPECT_EQ((f.role[static_cast<std::size_t>(e)] &
               trace::SubblockFrame::kLast) != 0,
              last)
        << e;
    EXPECT_EQ(f.gap(e, b), g.gap[static_cast<std::size_t>(e)]) << e;
    EXPECT_EQ(f.tail_after(e, b),
              last ? g.tail[static_cast<std::size_t>(b)].span : 0)
        << e;
  }
}

// --- kernel fingerprints ---------------------------------------------------

template <typename T>
void mix_all(Fnv& f, const std::vector<T>& v) {
  f.mix(static_cast<std::int64_t>(v.size()));
  for (const T x : v) {
    if constexpr (std::is_floating_point_v<T>)
      f.mix(std::bit_cast<std::int64_t>(static_cast<double>(x)));
    else
      f.mix(static_cast<std::int64_t>(x));
  }
}

/// One fingerprint over the six kernels' outputs: idle experienced,
/// differential duration, imbalance, lateness, critical path and the
/// efficiency suite over the phase windows.
std::uint64_t kernels_hash(const trace::Trace& t,
                           const order::LogicalStructure& ls, int threads) {
  Fnv f;
  const IdleExperienced idle = idle_experienced(t);
  mix_all(f, idle.per_event);
  mix_all(f, idle.per_block);
  const DifferentialDuration dd = differential_duration(t, ls, threads);
  mix_all(f, dd.per_event);
  f.mix(dd.max_value);
  f.mix(dd.max_event);
  const Imbalance imb = imbalance(t, ls, threads);
  mix_all(f, imb.per_phase);
  for (const auto& row : imb.per_phase_proc) mix_all(f, row);
  mix_all(f, imb.per_event);
  const Lateness late = lateness(t, ls, false, threads);
  mix_all(f, late.per_event);
  mix_all(f, late.caused_by_chare);
  f.mix(late.max_event);
  f.mix(std::bit_cast<std::int64_t>(late.mean));
  const CriticalPath cp = critical_path(t, ls, threads);
  mix_all(f, cp.events);
  mix_all(f, cp.chare_share);
  f.mix(cp.length_ns);
  f.mix(std::bit_cast<std::int64_t>(cp.coverage));
  const EfficiencySuite eff =
      efficiency_suite(t, WindowSet::phases(t, ls.phases), threads);
  mix_all(f, eff.loads.busy);
  mix_all(f, eff.loads.ideal_span);
  mix_all(f, eff.loads.transfer_wait);
  mix_all(f, eff.parallel.per_window);
  mix_all(f, eff.balance.per_window);
  mix_all(f, eff.communication.per_window);
  mix_all(f, eff.serialization.per_window);
  mix_all(f, eff.transfer.per_window);
  return f.value();
}

/// kernels_hash per golden, in kGoldens order, as the kernels computed
/// it when each derived its own inputs (threads=1, mem backend).
constexpr std::uint64_t kKernelHashes[] = {
    0xc50336c77f49297aULL,  // jacobi2d/charm
    0x53dbe7a3721197cfULL,  // jacobi2d/no_reorder
    0xd480b05279e54ff1ULL,  // lulesh/charm
    0x42521d3d5997e1aeULL,  // lulesh/no_inference
    0x433aa7307d44f85bULL,  // lulesh/mpi
    0x2e2d247d6a03ed2bULL,  // lulesh/mpi_baseline13
    0x0b92fa5387a11b1cULL,  // lassen/charm
    0xbeba7ccbc3ce1ab5ULL,  // lassen/mpi
    0xe103a0199b3db79eULL,  // mergetree/mpi
    0x066d9b57ccb3087fULL,  // mergetree/baseline13
    0x9d83efdca4d4eefdULL,  // nasbt/mpi
    0x8a00edd994de9f77ULL,  // pdes/charm
};
static_assert(std::size(kKernelHashes) == std::size(kGoldens));

StorageOptions blocked_4k() {
  StorageOptions opts;
  opts.kind = BackendKind::Blocked;
  opts.block_bytes = 4096;
  opts.cache_bytes = 2 * 16 * 4096;
  return opts;
}

TEST(MetricFrame, MatchesReferenceOnGoldensBackendsAndThreads) {
  StorageOptions mem;
  mem.kind = BackendKind::Mem;
  for (const StorageOptions& sopts : {mem, blocked_4k()}) {
    ScopedStorageOptions scope(sopts);
    for (const int threads : {1, 4}) {
      ScopedDefaultParallelism par(threads);
      for (std::size_t i = 0; i < std::size(kGoldens); ++i) {
        const auto& g = kGoldens[i];
        SCOPED_TRACE(std::string(g.name) + " threads=" +
                     std::to_string(threads) +
                     (sopts.kind == BackendKind::Mem ? " mem" : " blocked"));
        const trace::Trace t = g.make();
        ASSERT_EQ(t.storage_backend(), sopts.kind);
        order::Options opts = g.opts();
        opts.threads = threads;
        const order::LogicalStructure ls = order::extract_structure(t, opts);
        expect_views_match_reference(t);
        expect_same_path(critical_path(t, ls, threads),
                         ref_critical_path(t, ls));
        EXPECT_EQ(kernels_hash(t, ls, threads), kKernelHashes[i])
            << std::hex << "0x" << kernels_hash(t, ls, threads);
      }
    }
  }
}

/// Writes `t` as an .lsblk container with event `orphan` moved out of its
/// block: its block field becomes kNone and it leaves the block's event
/// list. Neither the builder nor the readers make such a trace, so a
/// container written column by column is the way to get one.
void write_with_blockless_event(const trace::Trace& t, EventId orphan,
                                const std::string& path) {
  using trace::storage::ColumnId;
  trace::storage::BlockStoreWriter w(path, 4096);
  auto put = [&w](ColumnId col, const auto& rows) {
    using T = typename std::decay_t<decltype(rows)>::value_type;
    w.set_elem_bytes(col, sizeof(T));
    w.append(col, rows.data(), rows.size() * sizeof(T));
  };
  auto all = [](const auto& view) {
    return std::vector(view.begin(), view.end());
  };
  std::vector<trace::Event> events = all(t.events());
  const trace::BlockId home = events[static_cast<std::size_t>(orphan)].block;
  events[static_cast<std::size_t>(orphan)].block = trace::kNone;
  put(ColumnId::Events, events);
  put(ColumnId::Blocks, all(t.blocks()));
  put(ColumnId::Idles, all(t.idles()));
  put(ColumnId::DepSend, all(t.dep_sends()));
  put(ColumnId::DepRecv, all(t.dep_recvs()));
  put(ColumnId::DepKind, all(t.dep_kinds()));
  std::vector<std::int32_t> dep_begin{0};
  std::vector<EventId> block_events;
  std::vector<std::int64_t> block_ev_begin{0};
  std::vector<EventId> chare_events;
  std::vector<trace::BlockId> chare_blocks;
  std::vector<trace::BlockId> proc_blocks;
  for (EventId e = 0; e < t.num_events(); ++e) {
    const bool send = t.event(e).kind == trace::EventKind::Send;
    dep_begin.push_back(dep_begin.back() +
                        (send ? static_cast<std::int32_t>(
                                    t.receivers(e).size())
                              : 0));
  }
  for (trace::BlockId b = 0; b < t.num_blocks(); ++b) {
    for (EventId e : t.events_of_block(b))
      if (e != orphan || b != home) block_events.push_back(e);
    block_ev_begin.push_back(static_cast<std::int64_t>(block_events.size()));
  }
  for (trace::ChareId c = 0; c < t.num_chares(); ++c) {
    for (EventId e : t.events_of_chare(c)) chare_events.push_back(e);
    for (trace::BlockId b : t.blocks_of_chare(c)) chare_blocks.push_back(b);
  }
  for (trace::ProcId p = 0; p < t.num_procs(); ++p)
    for (trace::BlockId b : t.blocks_of_proc(p)) proc_blocks.push_back(b);
  put(ColumnId::DepBegin, dep_begin);
  put(ColumnId::BlockEvents, block_events);
  put(ColumnId::BlockEvBegin, block_ev_begin);
  put(ColumnId::ChareEvents, chare_events);
  put(ColumnId::ChareBlocks, chare_blocks);
  put(ColumnId::ProcBlocks, proc_blocks);
  w.finish(trace::storage::serialize_trace_metadata(t));
}

/// An event without a block has a zero duration, does not move its old
/// block's cursor, and carries no tail: the frame and the critical path
/// agree with the reference walk, which never visits it.
TEST(MetricFrame, BlocklessEventMatchesReference) {
  trace::TraceBuilder tb;
  const trace::ChareId c0 = tb.add_chare("c0");
  const trace::ChareId c1 = tb.add_chare("c1");
  const trace::EntryId go = tb.add_entry("go");
  const trace::BlockId b0 = tb.begin_block(c0, 0, go, 0);
  const EventId s1 = tb.add_send(b0, 10);
  const EventId s2 = tb.add_send(b0, 20);
  tb.end_block(b0, 30);
  const trace::BlockId b1 = tb.begin_block(c1, 1, go, 15);
  const EventId r1 = tb.add_recv(b1, 15, s1);
  const EventId orphan = tb.add_send(b1, 25);
  const EventId y = tb.add_send(b1, 40);
  tb.end_block(b1, 50);
  const trace::BlockId b2 = tb.begin_block(c1, 1, go, 55);
  tb.add_recv(b2, 60, s2);
  tb.end_block(b2, 70);
  StorageOptions mem;
  mem.kind = BackendKind::Mem;
  ScopedStorageOptions scope(mem);
  const trace::Trace built = tb.finish(2);

  const std::string path = ::testing::TempDir() + "/blockless.lsblk";
  write_with_blockless_event(built, orphan, path);
  const trace::Trace t = trace::storage::open_blocked_trace(path);
  ASSERT_EQ(t.event(orphan).block, trace::kNone);

  expect_views_match_reference(t);
  const trace::SubblockFrame& f = t.subblock_frame();
  EXPECT_EQ(f.duration[static_cast<std::size_t>(orphan)], 0);
  EXPECT_EQ(f.duration[static_cast<std::size_t>(y)], 40 - 15);
  EXPECT_EQ(f.duration[static_cast<std::size_t>(r1)], 50 - 40);
  const order::LogicalStructure ls;  // the path reads no structure
  expect_same_path(critical_path(t, ls, 1), ref_critical_path(t, ls));
  std::remove(path.c_str());
}

/// A trace made from another by apply_clock_skew freezes afresh, so it
/// gets its own views even when the source's were built first; a plain
/// copy shares the source's.
TEST(MetricFrame, SkewedCopyGetsFreshViews) {
  const auto& g = kGoldens[2];  // lulesh/charm
  const trace::Trace t = g.make();
  const order::LogicalStructure ls = order::extract_structure(t, g.opts());
  const CriticalPath before = critical_path(t, ls, 1);

  std::vector<TimeNs> delta(static_cast<std::size_t>(t.num_procs()));
  for (std::size_t p = 0; p < delta.size(); ++p)
    delta[p] = static_cast<TimeNs>(p % 2 == 0 ? 700 : -300);
  const trace::Trace skewed = trace::apply_clock_skew(t, delta);
  EXPECT_NE(&skewed.by_time(), &t.by_time());
  EXPECT_NE(&skewed.subblock_frame(), &t.subblock_frame());
  EXPECT_NE(&skewed.incoming_deps(), &t.incoming_deps());
  EXPECT_NE(skewed.by_time(), t.by_time());
  expect_views_match_reference(skewed);
  expect_same_path(critical_path(skewed, ls, 1),
                   ref_critical_path(skewed, ls));
  expect_same_path(critical_path(t, ls, 1), before);

  const trace::Trace copy = t;
  EXPECT_EQ(&copy.subblock_frame(), &t.subblock_frame());
}

#if LOGSTRUCT_OBS
std::int64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}
#endif

/// One extraction, the six kernels and the efficiency suite sort the
/// events once and build the sub-block frame once.
TEST(MetricFrame, BuiltOncePerAnalysis) {
#if LOGSTRUCT_OBS
  for (const auto& g : kGoldens) {
    SCOPED_TRACE(g.name);
    const std::int64_t sorts = counter("trace/by_time/sorts");
    const std::int64_t frames = counter("trace/subblock_frame/builds");
    const trace::Trace t = g.make();
    const order::LogicalStructure ls = order::extract_structure(t, g.opts());
    (void)kernels_hash(t, ls, 1);
    (void)efficiency_suite(t, WindowSet::time_bins(t, 8), 1);
    EXPECT_EQ(counter("trace/by_time/sorts") - sorts, 1);
    EXPECT_EQ(counter("trace/subblock_frame/builds") - frames, 1);
  }
#else
  GTEST_SKIP() << "built with LOGSTRUCT_OBS=0: no counters";
#endif
}

/// Four threads running every kernel on one fresh trace race for the
/// first build of each view; all of them see the serial outputs.
TEST(MetricFrame, ConcurrentKernelsMatchSerial) {
  for (const std::size_t i : {std::size_t{2}, std::size_t{7}}) {
    const auto& g = kGoldens[i];
    SCOPED_TRACE(g.name);
    const order::LogicalStructure ls = [&] {
      const trace::Trace t = g.make();
      return order::extract_structure(t, g.opts());
    }();
    const std::uint64_t serial = [&] {
      const trace::Trace t = g.make();
      return kernels_hash(t, ls, 1);
    }();
    const trace::Trace fresh = g.make();
    std::vector<std::uint64_t> got(4, 0);
    std::vector<std::thread> workers;
    for (std::size_t w = 0; w < got.size(); ++w)
      workers.emplace_back(
          [&, w] { got[w] = kernels_hash(fresh, ls, 1); });
    for (std::thread& w : workers) w.join();
    for (const std::uint64_t h : got) EXPECT_EQ(h, serial);
  }
}

}  // namespace
}  // namespace logstruct::metrics
