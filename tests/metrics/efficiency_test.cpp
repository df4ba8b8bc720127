/// \file efficiency_test.cpp
/// The time-resolved efficiency suite: golden integer fingerprints over
/// the 12 golden workloads (recorded at threads=1, asserted bit-identical
/// at threads=4 — the PR-4 determinism contract extended to the POP
/// kernels), degraded-window quarantine provenance, and the empty /
/// single-event / zero-span window edge cases.

#include "metrics/efficiency.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "metrics/subblock.hpp"
#include "metrics/windows.hpp"
#include "order/stepping.hpp"
#include "trace/builder.hpp"
#include "trace/depview.hpp"
#include "../order/golden_fixtures.hpp"

namespace logstruct::metrics {
namespace {

using order::golden::Fnv;
using order::golden::kGoldens;
using order::golden::ScopedDefaultParallelism;

/// Fingerprint of every integer field the suite computes. Doubles are
/// excluded on purpose (they are derived ratios whose bit patterns may
/// differ across compilers); cross-thread bit-identity of the doubles is
/// asserted separately below.
std::uint64_t suite_hash(const EfficiencySuite& s) {
  Fnv f;
  f.mix(s.kind == WindowKind::TimeBin ? 0 : 1);
  f.mix(s.num_windows());
  f.mix(s.degraded_windows);
  f.mix(s.bin_width_ns);
  for (std::int32_t w = 0; w < s.num_windows(); ++w) {
    const auto wz = static_cast<std::size_t>(w);
    f.mix(s.windows[wz].begin);
    f.mix(s.windows[wz].end);
    f.mix(s.windows[wz].phase);
    f.mix(s.windows[wz].degraded ? 1 : 0);
    f.mix(s.loads.events[wz]);
    f.mix(s.loads.procs_active[wz]);
    f.mix(s.loads.messages[wz]);
    f.mix(s.loads.busy_sum[wz]);
    f.mix(s.loads.busy_max[wz]);
    f.mix(s.loads.ideal_span[wz]);
    f.mix(s.loads.transfer_wait[wz]);
  }
  return f.value();
}

void expect_identical(const EfficiencySuite& a, const EfficiencySuite& b,
                      const char* what) {
  ASSERT_EQ(a.num_windows(), b.num_windows()) << what;
  EXPECT_EQ(a.loads.busy, b.loads.busy) << what;
  EXPECT_EQ(a.loads.ideal_span, b.loads.ideal_span) << what;
  // Exact double equality: the kernels promise bit-identical results for
  // any thread count, not just close ones.
  EXPECT_EQ(a.parallel.per_window, b.parallel.per_window) << what;
  EXPECT_EQ(a.balance.per_window, b.balance.per_window) << what;
  EXPECT_EQ(a.communication.per_window, b.communication.per_window) << what;
  EXPECT_EQ(a.serialization.per_window, b.serialization.per_window) << what;
  EXPECT_EQ(a.transfer.per_window, b.transfer.per_window) << what;
  EXPECT_EQ(a.parallel.summary.min, b.parallel.summary.min) << what;
  EXPECT_EQ(a.parallel.summary.mean, b.parallel.summary.mean) << what;
  EXPECT_EQ(a.balance.summary.min_window, b.balance.summary.min_window)
      << what;
}

/// Recorded suite_hash values per golden workload, phases suite then an
/// 8-bin time suite, in kGoldens order (threads=1).
struct EffGolden {
  std::uint64_t phases;
  std::uint64_t bins;
};
constexpr EffGolden kEffGoldens[] = {
    {0x4195cee3f6f08dd0ULL, 0x1ed94db1aa9de34aULL},  // jacobi2d/charm
    {0x4195cee3f6f08dd0ULL, 0x1ed94db1aa9de34aULL},  // jacobi2d/no_reorder
    {0x302a75e96f33c00eULL, 0x9949c4811ca48f09ULL},  // lulesh/charm
    {0xc5f9db6ed3f675eaULL, 0x9949c4811ca48f09ULL},  // lulesh/no_inference
    {0xe12a7dc8bbd5eb9cULL, 0x322417054cb8ef99ULL},  // lulesh/mpi
    {0x0140179cf74dda49ULL, 0x322417054cb8ef99ULL},  // lulesh/mpi_baseline13
    {0x0f499ce030e39ca0ULL, 0xdee100e26afd3130ULL},  // lassen/charm
    {0x8ad9e4bf5f10d8b0ULL, 0x735874d0cca4bdc0ULL},  // lassen/mpi
    {0xa162f6f10bad9fbbULL, 0x8c87087c11674901ULL},  // mergetree/mpi
    {0x712390a041b0db77ULL, 0x8c87087c11674901ULL},  // mergetree/baseline13
    {0xdc9670a4c4803b9eULL, 0xa858de261a062d53ULL},  // nasbt/mpi
    {0xd4eb1e5d5126a304ULL, 0xdee869885a41e818ULL},  // pdes/charm
};
static_assert(std::size(kEffGoldens) == std::size(kGoldens));

TEST(EfficiencyGolden, FingerprintsAndThreadMatrix) {
  for (std::size_t i = 0; i < std::size(kGoldens); ++i) {
    const auto& g = kGoldens[i];
    SCOPED_TRACE(g.name);
    ScopedDefaultParallelism serial(1);
    const trace::Trace t = g.make();
    const order::LogicalStructure ls =
        order::extract_structure(t, g.opts());

    const WindowSet phase_set = WindowSet::phases(t, ls.phases);
    const WindowSet bin_set = WindowSet::time_bins(t, 8);

    const EfficiencySuite phases1 = efficiency_suite(t, phase_set, 1);
    const EfficiencySuite bins1 = efficiency_suite(t, bin_set, 1);
    const EfficiencySuite phases4 = efficiency_suite(t, phase_set, 4);
    const EfficiencySuite bins4 = efficiency_suite(t, bin_set, 4);

    EXPECT_EQ(suite_hash(phases1), kEffGoldens[i].phases)
        << g.name << " phases hash 0x" << std::hex << suite_hash(phases1);
    EXPECT_EQ(suite_hash(bins1), kEffGoldens[i].bins)
        << g.name << " bins hash 0x" << std::hex << suite_hash(bins1);
    expect_identical(phases1, phases4, "phases threads 1 vs 4");
    expect_identical(bins1, bins4, "bins threads 1 vs 4");
  }
}

/// The window loads as computed before the replay chains came from one
/// walk of the proc lists: every window sorts its events by (proc, rank
/// in the proc's execution order) and chains neighbours on one proc.
/// Serial; the reference for EfficiencyReplay below.
WindowLoads sorted_chain_loads(const trace::Trace& trace,
                               const WindowSet& windows) {
  const auto num_windows = static_cast<std::size_t>(windows.size());
  const auto num_procs = static_cast<std::size_t>(trace.num_procs());
  const auto num_events = static_cast<std::size_t>(trace.num_events());
  WindowLoads loads;
  loads.num_procs = trace.num_procs();
  loads.busy.assign(num_windows * num_procs, 0);
  loads.procs_active.assign(num_windows, 0);
  loads.events.assign(num_windows, 0);
  loads.messages.assign(num_windows, 0);
  loads.transfer_wait.assign(num_windows, 0);
  loads.busy_sum.assign(num_windows, 0);
  loads.busy_max.assign(num_windows, 0);
  loads.ideal_span.assign(num_windows, 0);
  const std::vector<trace::TimeNs> dur = subblock_durations(trace);

  // (proc << 32 | rank in the proc's execution order) per event.
  std::vector<std::int64_t> proc_rank(num_events, 0);
  for (trace::EventId e = 0; e < trace.num_events(); ++e)
    proc_rank[static_cast<std::size_t>(e)] =
        static_cast<std::int64_t>(trace.event(e).proc) << 32;
  for (std::int32_t p = 0; p < trace.num_procs(); ++p) {
    std::uint32_t rank = 0;
    for (trace::BlockId b : trace.blocks_of_proc(p))
      for (trace::EventId e : trace.events_of_block(b)) {
        std::int64_t& key = proc_rank[static_cast<std::size_t>(e)];
        key = (key & ~std::int64_t{0xffffffff}) | rank++;
      }
  }
  auto proc_of = [&](trace::EventId e) {
    return static_cast<std::size_t>(proc_rank[static_cast<std::size_t>(e)] >>
                                    32);
  };

  const trace::IncomingDeps deps(trace);
  const auto dep_sends = trace.dep_sends();
  const auto dep_recvs = trace.dep_recvs();
  for (std::size_t r = 0; r < dep_sends.size(); ++r) {
    const trace::TimeNs latency =
        trace.event(dep_recvs[r]).time - trace.event(dep_sends[r]).time;
    loads.transfer_wait[static_cast<std::size_t>(
        windows.window_of(dep_recvs[r]))] +=
        std::max<trace::TimeNs>(0, latency);
  }

  std::vector<trace::TimeNs> finish(num_events, 0);
  std::vector<std::uint8_t> state(num_events, 0);
  std::vector<trace::EventId> prev_in_window(num_events, trace::kNone);
  for (std::int32_t w = 0; w < windows.size(); ++w) {
    const auto wz = static_cast<std::size_t>(w);
    const auto events = windows.events_of(w);
    loads.events[wz] = static_cast<std::int32_t>(events.size());
    trace::TimeNs* busy = loads.busy.data() + wz * num_procs;
    std::vector<std::uint8_t> touched(num_procs, 0);
    for (trace::EventId e : events) {
      busy[proc_of(e)] += dur[static_cast<std::size_t>(e)];
      touched[proc_of(e)] = 1;
    }
    for (std::size_t p = 0; p < num_procs; ++p) {
      if (!touched[p]) continue;
      ++loads.procs_active[wz];
      loads.busy_sum[wz] += busy[p];
      loads.busy_max[wz] = std::max(loads.busy_max[wz], busy[p]);
    }
    loads.messages[wz] = static_cast<std::int64_t>(windows.deps_of(w).size());

    std::vector<trace::EventId> order(events.begin(), events.end());
    std::sort(order.begin(), order.end(),
              [&](trace::EventId a, trace::EventId b) {
                return proc_rank[static_cast<std::size_t>(a)] <
                       proc_rank[static_cast<std::size_t>(b)];
              });
    for (std::size_t i = 0; i < order.size(); ++i) {
      const bool same_proc =
          i > 0 && proc_of(order[i - 1]) == proc_of(order[i]);
      prev_in_window[static_cast<std::size_t>(order[i])] =
          same_proc ? order[i - 1] : trace::kNone;
    }

    auto for_each_pred = [&](trace::EventId v, auto&& fn) {
      const trace::EventId prev = prev_in_window[static_cast<std::size_t>(v)];
      if (prev != trace::kNone) fn(prev);
      for (trace::EventId s : deps.senders(v))
        if (windows.window_of(s) == w) fn(s);
    };
    std::vector<trace::EventId> stack;
    for (trace::EventId e : events) {
      if (state[static_cast<std::size_t>(e)] == 2) continue;
      stack.push_back(e);
      while (!stack.empty()) {
        const trace::EventId v = stack.back();
        const auto vz = static_cast<std::size_t>(v);
        if (state[vz] == 2) {
          stack.pop_back();
          continue;
        }
        if (state[vz] == 0) {
          state[vz] = 1;
          for_each_pred(v, [&](trace::EventId pred) {
            if (state[static_cast<std::size_t>(pred)] == 0)
              stack.push_back(pred);
          });
          continue;
        }
        trace::TimeNs chain = 0;
        for_each_pred(v, [&](trace::EventId pred) {
          if (state[static_cast<std::size_t>(pred)] == 2)
            chain = std::max(chain, finish[static_cast<std::size_t>(pred)]);
        });
        finish[vz] = chain + dur[vz];
        state[vz] = 2;
        stack.pop_back();
      }
    }
    for (trace::EventId e : events)
      loads.ideal_span[wz] =
          std::max(loads.ideal_span[wz], finish[static_cast<std::size_t>(e)]);
  }
  return loads;
}

void expect_same_loads(const WindowLoads& got, const WindowLoads& want) {
  EXPECT_EQ(got.num_procs, want.num_procs);
  EXPECT_EQ(got.busy, want.busy);
  EXPECT_EQ(got.procs_active, want.procs_active);
  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.transfer_wait, want.transfer_wait);
  EXPECT_EQ(got.busy_sum, want.busy_sum);
  EXPECT_EQ(got.busy_max, want.busy_max);
  EXPECT_EQ(got.ideal_span, want.ideal_span);
}

TEST(EfficiencyReplay, ChainsMatchPerWindowSortOnGoldens) {
  for (const auto& g : kGoldens) {
    SCOPED_TRACE(g.name);
    ScopedDefaultParallelism serial(1);
    const trace::Trace t = g.make();
    const order::LogicalStructure ls =
        order::extract_structure(t, g.opts());
    std::vector<std::pair<std::string, WindowSet>> sets;
    sets.emplace_back("phases", WindowSet::phases(t, ls.phases));
    for (std::int32_t bins : {1, 8, 64, 1000})
      sets.emplace_back(std::to_string(bins) + " bins",
                        WindowSet::time_bins(t, bins));
    for (const auto& [name, set] : sets) {
      SCOPED_TRACE(name);
      const WindowLoads want = sorted_chain_loads(t, set);
      for (int threads : {1, 4}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        expect_same_loads(compute_window_loads(t, set, threads), want);
      }
    }
  }
}

TEST(EfficiencyWindows, TimeBinsPartitionEvents) {
  const trace::Trace t = order::golden::jacobi_small();
  const WindowSet set = WindowSet::time_bins(t, 16);
  ASSERT_EQ(set.size(), 16);
  std::int64_t covered = 0;
  for (const auto view : set) {
    for (trace::EventId e : view.events()) {
      EXPECT_EQ(set.window_of(e), view.index);
      const trace::TimeNs time = t.event(e).time;
      EXPECT_GE(time, view.window().begin);
      EXPECT_LE(time, view.window().end);
    }
    covered += static_cast<std::int64_t>(view.events().size());
  }
  EXPECT_EQ(covered, t.num_events());

  std::int64_t deps = 0;
  for (const auto view : set) deps += view.deps().size();
  EXPECT_EQ(deps, t.num_dependencies());
}

TEST(EfficiencyWindows, DegradedQuarantine) {
  trace::TraceBuilder b;
  const trace::ChareId c0 = b.add_chare("clean");
  const trace::ChareId c1 = b.add_chare("repaired");
  const trace::EntryId e = b.add_entry("work");
  const trace::BlockId b0 = b.begin_block(c0, 0, e, 0);
  const trace::EventId s = b.add_send(b0, 10);
  b.end_block(b0, 20);
  const trace::BlockId b1 = b.begin_block(c1, 1, e, 30);
  b.add_recv(b1, 30, s);
  b.end_block(b1, 50);
  b.mark_degraded(c1);
  const trace::Trace t = b.finish(2);

  // A time bin inherits the flag from any degraded chare's event in it.
  const WindowSet bins = WindowSet::time_bins(t, 2);
  EXPECT_FALSE(bins.window(0).degraded);
  EXPECT_TRUE(bins.window(1).degraded);
  EXPECT_EQ(bins.degraded_windows(), 1);

  // Phase windows carry PhaseResult's quarantine verdict through.
  order::PhaseResult phases;
  phases.events = {{0}, {1}};
  phases.runtime = {false, false};
  phases.phase_of_event = {0, 1};
  phases.degraded = {false, true};
  phases.degraded_phases = 1;
  const WindowSet pw = WindowSet::phases(t, phases);
  EXPECT_EQ(pw.degraded_windows(), 1);
  EXPECT_TRUE(pw.window(1).degraded);

  const EfficiencySuite suite = efficiency_suite(t, pw);
  EXPECT_EQ(suite.degraded_windows, 1);
}

TEST(EfficiencyEdgeCases, EmptySingleAndZeroSpanWindows) {
  trace::TraceBuilder b;
  const trace::ChareId c0 = b.add_chare("a");
  const trace::ChareId c1 = b.add_chare("b");
  const trace::EntryId e = b.add_entry("work");
  const trace::BlockId b0 = b.begin_block(c0, 0, e, 0);
  const trace::EventId s0 = b.add_send(b0, 40);
  b.end_block(b0, 100);
  const trace::BlockId b1 = b.begin_block(c1, 1, e, 0);
  const trace::EventId s1 = b.add_send(b1, 40);
  b.end_block(b1, 100);
  const trace::Trace t = b.finish(2);

  // Phase 0 owns both events at t=40 (zero span), phase 1 is empty.
  order::PhaseResult phases;
  phases.events = {{s0, s1}, {}};
  phases.runtime = {false, false};
  phases.phase_of_event = {0, 0};
  const WindowSet pw = WindowSet::phases(t, phases);
  ASSERT_EQ(pw.size(), 2);
  EXPECT_EQ(pw.window(0).span(), 0);
  EXPECT_TRUE(pw.events_of(1).empty());

  const EfficiencySuite suite = efficiency_suite(t, pw);
  // Zero-span window with events: everything happened "at once" — all
  // ratios are 1 by convention.
  EXPECT_EQ(suite.parallel.per_window[0], 1.0);
  EXPECT_EQ(suite.balance.per_window[0], 1.0);
  EXPECT_EQ(suite.communication.per_window[0], 1.0);
  EXPECT_EQ(suite.serialization.per_window[0], 1.0);
  EXPECT_EQ(suite.transfer.per_window[0], 1.0);
  // Empty window: all zero, and excluded from the summaries.
  EXPECT_EQ(suite.parallel.per_window[1], 0.0);
  EXPECT_EQ(suite.balance.per_window[1], 0.0);
  EXPECT_EQ(suite.parallel.summary.min, 1.0);
  EXPECT_EQ(suite.parallel.summary.min_window, 0);
  EXPECT_EQ(suite.balance.summary.mean, 1.0);

  // A single-event window is well-defined: one proc active, busy equals
  // ideal, so balance and serialization are 1.
  const WindowSet bins = WindowSet::time_bins_of_width(t, 25);
  const std::int32_t w40 = bins.window_of(s0);
  ASSERT_EQ(bins.events_of(w40).size(), 2u);
  const EfficiencySuite bsuite = efficiency_suite(t, bins);
  for (std::int32_t w = 0; w < bsuite.num_windows(); ++w) {
    const auto wz = static_cast<std::size_t>(w);
    if (bsuite.loads.events[wz] == 0) {
      EXPECT_EQ(bsuite.parallel.per_window[wz], 0.0);
      EXPECT_NE(bsuite.balance.summary.min_window, w);
    }
  }
}

TEST(EfficiencyEdgeCases, EmptyTrace) {
  trace::TraceBuilder b;
  const trace::Trace t = b.finish(1);
  const WindowSet bins = WindowSet::time_bins(t, 4);
  EXPECT_EQ(bins.size(), 4);
  const EfficiencySuite suite = efficiency_suite(t, bins);
  EXPECT_EQ(suite.parallel.summary.mean, 0.0);
  EXPECT_EQ(suite.parallel.summary.min_window, -1);
}

}  // namespace
}  // namespace logstruct::metrics
