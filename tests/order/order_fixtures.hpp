#pragma once

/// Shared invariant checks and synthetic traces for ordering tests.

#include <gtest/gtest.h>

#include "graph/scc.hpp"
#include "order/stepping.hpp"
#include "order/validate.hpp"
#include "trace/builder.hpp"
#include "trace/skew.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace logstruct::order::testing {

/// RAII override of the process-wide default parallelism, restored on
/// scope exit so a threaded test cannot leak its count into later tests
/// (trace freezing and any Options::threads == 0 stage follow it).
struct ScopedDefaultParallelism {
  explicit ScopedDefaultParallelism(int n)
      : prev(util::default_parallelism()) {
    util::set_default_parallelism(n);
  }
  ~ScopedDefaultParallelism() { util::set_default_parallelism(prev); }
  ScopedDefaultParallelism(const ScopedDefaultParallelism&) = delete;
  ScopedDefaultParallelism& operator=(const ScopedDefaultParallelism&) =
      delete;
  int prev;
};

/// Per-PE clock skew: each processor's clock shifted by a seed-derived
/// offset drawn uniformly from [-magnitude, magnitude] ns (0 = as is).
inline trace::Trace skewed(trace::Trace t, std::int64_t magnitude,
                           std::uint64_t seed) {
  if (magnitude == 0) return t;
  util::Rng rng(seed ^ 0x5CE3ULL);
  std::vector<trace::TimeNs> delta(static_cast<std::size_t>(t.num_procs()));
  for (auto& d : delta) d = rng.uniform_range(-magnitude, magnitude);
  return trace::apply_clock_skew(t, delta);
}

/// Field-for-field equality of two logical structures — the cross-check
/// used by the thread-count determinism tests. EXPECT (not ASSERT) so a
/// divergence reports every differing field at once.
inline void expect_structures_equal(const LogicalStructure& a,
                                    const LogicalStructure& b,
                                    const char* label = "") {
  EXPECT_EQ(a.global_step, b.global_step) << label;
  EXPECT_EQ(a.max_step, b.max_step) << label;
  EXPECT_EQ(a.order_conflicts, b.order_conflicts) << label;
  EXPECT_EQ(a.phases.phase_of_event, b.phases.phase_of_event) << label;
  EXPECT_EQ(a.phases.events, b.phases.events) << label;
  EXPECT_EQ(a.phases.runtime, b.phases.runtime) << label;
  EXPECT_EQ(a.phases.leap, b.phases.leap) << label;
  EXPECT_EQ(a.phases.dag.edges(), b.phases.dag.edges()) << label;
  EXPECT_EQ(a.phase_offset, b.phase_offset) << label;
  EXPECT_EQ(a.phase_height, b.phase_height) << label;
  EXPECT_EQ(a.chare_sequence, b.chare_sequence) << label;
}

/// Assert the invariants every logical structure must satisfy (see
/// order::validate_structure for the list), plus conflict-free stepping.
inline void expect_structure_invariants(const trace::Trace& trace,
                                        const LogicalStructure& ls) {
  std::vector<std::string> problems = validate_structure(trace, ls);
  EXPECT_TRUE(problems.empty())
      << problems.size() << " problems; first: " << problems.front();
  EXPECT_EQ(ls.order_conflicts, 0);
}

/// The paper's Figure 3 trace: a ring of chares, each serial_0 invoking
/// recvResult on its left neighbor; recvResult guards a when-serial.
struct RingTrace {
  trace::Trace trace;
  int n = 4;
};

inline RingTrace make_ring_trace(int n = 4, trace::TimeNs stagger = 100) {
  trace::TraceBuilder tb;
  trace::ArrayId arr = tb.add_array("ring");
  std::vector<trace::ChareId> chares;
  for (int i = 0; i < n; ++i)
    chares.push_back(tb.add_chare("ring[" + std::to_string(i) + "]", arr, i,
                                  i % 2));
  trace::EntryId e_recv = tb.add_entry("recvResult");
  trace::EntryId e_s0 = tb.add_entry("serial_0", false, 0);
  trace::EntryId e_s1 = tb.add_entry("serial_1", false, 1, {e_recv});

  // serial_0 on every chare: a send to the left neighbor.
  std::vector<trace::EventId> sends;
  for (int i = 0; i < n; ++i) {
    trace::TimeNs t = i * stagger;
    trace::BlockId b = tb.begin_block(chares[static_cast<std::size_t>(i)],
                                      i % 2, e_s0, t);
    sends.push_back(tb.add_send(b, t + 10));
    tb.end_block(b, t + 20);
  }
  // recvResult + immediately-following serial_1 on the left neighbor.
  for (int i = 0; i < n; ++i) {
    int dst = (i + n - 1) % n;
    trace::TimeNs t = 2000 + i * stagger;
    trace::BlockId br = tb.begin_block(chares[static_cast<std::size_t>(dst)],
                                       dst % 2, e_recv, t);
    tb.add_recv(br, t, sends[static_cast<std::size_t>(i)]);
    tb.end_block(br, t + 30);
    trace::BlockId bs = tb.begin_block(chares[static_cast<std::size_t>(dst)],
                                       dst % 2, e_s1, t + 30);
    tb.end_block(bs, t + 60);
  }

  RingTrace out;
  out.trace = tb.finish(2);
  out.n = n;
  return out;
}

}  // namespace logstruct::order::testing
