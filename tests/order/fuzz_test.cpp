/// Randomized-trace robustness: generate arbitrary (but well-formed)
/// message-driven traces — random chares, placements, serial blocks,
/// fan-outs, untraced dependencies, runtime chares — and assert the
/// pipeline's invariants hold for every option set. This guards the
/// algorithm against shapes the proxy apps never produce.

#include <gtest/gtest.h>

#include "order/stats.hpp"
#include "order/stepping.hpp"
#include "order_fixtures.hpp"
#include "random_trace.hpp"
#include "trace/builder.hpp"
#include "trace/validate.hpp"
#include "util/rng.hpp"

namespace logstruct::order {
namespace {

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

/// Per-PE clock skew is one more input: skew lets receives precede
/// their sends across PEs, so unit orders can contradict the messages
/// and stepping must break the resulting cycles (order_conflicts > 0)
/// while keeping every step invariant and the happened-before relation.
TEST_P(FuzzSeeds, PipelineInvariantsHold) {
  const std::uint64_t seed = GetParam();
  for (std::int64_t skew_ns : {0, 200, 2000}) {
    trace::Trace t = testing::skewed(testing::random_trace(seed), skew_ns,
                                     seed);
    if (skew_ns == 0) {
      ASSERT_TRUE(trace::validate(t).empty());
    }
    for (Options opts :
         {Options::charm(), Options::charm_no_reorder(),
          Options::charm_no_inference(), Options::mpi(),
          Options::mpi_baseline13()}) {
      if (skew_ns == 0) {
        testing::expect_structure_invariants(t, extract_structure(t, opts));
        continue;
      }
      opts.check_causality = true;
      LogicalStructure ls = extract_structure(t, opts);
      std::vector<std::string> problems = validate_structure(t, ls);
      EXPECT_TRUE(problems.empty())
          << "skew=" << skew_ns << ": " << problems.front();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ManySeeds, FuzzSeeds,
                         ::testing::Range<std::uint64_t>(1, 65));

/// Thread-count fuzzing: the same random traces, extracted with a
/// seed-derived thread count (2..9, plus the oversubscribed 16) against a
/// threaded trace freeze, must match the serial structure exactly. Odd
/// shard splits, one-event partitions, and untraced dependencies all flow
/// through here — the shapes the proxy apps never produce.
TEST_P(FuzzSeeds, ThreadedMatchesSerial) {
  const std::uint64_t seed = GetParam();
  trace::Trace serial_trace = testing::random_trace(seed);
  LogicalStructure serial =
      extract_structure(serial_trace, Options::charm());
  const int threads =
      seed % 8 == 0 ? 16 : 2 + static_cast<int>(seed % 8);
  testing::ScopedDefaultParallelism scope(threads);
  trace::Trace t = testing::random_trace(seed);
  Options opts = Options::charm();
  opts.threads = threads;
  LogicalStructure ls = extract_structure(t, opts);
  testing::expect_structures_equal(serial, ls, "fuzz threaded");
}

}  // namespace
}  // namespace logstruct::order
