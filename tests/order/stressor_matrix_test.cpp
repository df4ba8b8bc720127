/// Combined-stressor matrix: migration, load balancing, clock skew, and
/// scheduling seeds together. Whatever the simulator throws at it, the
/// pipeline's structural guarantees must hold for every option preset —
/// the strongest end-to-end statement the suite makes.

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "apps/jacobi2d.hpp"
#include "apps/lassen.hpp"
#include "order/stepping.hpp"
#include "order/validate.hpp"
#include "order_fixtures.hpp"
#include "trace/validate.hpp"

namespace logstruct::order {
namespace {

/// (seed, migrate, load-balance, skew-ns)
using Stressors = std::tuple<std::uint64_t, bool, bool, std::int64_t>;

class StressorMatrix : public ::testing::TestWithParam<Stressors> {};

TEST_P(StressorMatrix, JacobiInvariantsHold) {
  auto [seed, migrate, lb, skew_ns] = GetParam();
  apps::Jacobi2DConfig cfg;
  cfg.chares_x = 4;
  cfg.chares_y = 4;
  cfg.num_pes = 4;
  cfg.iterations = 4;
  cfg.seed = seed;
  if (migrate) cfg.migrate_at_iteration = 1;
  if (lb) {
    cfg.lb_at_iteration = 2;
    cfg.slow_chare = 5;
    cfg.slow_every_iteration = true;
  }
  trace::Trace t = testing::skewed(apps::run_jacobi2d(cfg), skew_ns, seed);
  // Skew legitimately lets receives precede their sends across PEs; only
  // unskewed traces validate cleanly.
  if (skew_ns == 0) {
    ASSERT_TRUE(trace::validate(t).empty());
  }

  for (const Options& opts :
       {Options::charm(), Options::charm_no_reorder(),
        Options::charm_no_inference()}) {
    LogicalStructure ls = extract_structure(t, opts);
    auto problems = validate_structure(t, ls);
    EXPECT_TRUE(problems.empty())
        << "seed=" << seed << " migrate=" << migrate << " lb=" << lb
        << " skew=" << skew_ns << ": " << problems.front();
  }
}

TEST_P(StressorMatrix, LassenInvariantsHold) {
  auto [seed, migrate, lb, skew_ns] = GetParam();
  (void)migrate;  // LASSEN exposes LB, not ad-hoc migration
  apps::LassenConfig cfg;
  cfg.iterations = 5;
  cfg.seed = seed;
  if (lb) cfg.lb_period = 2;
  trace::Trace t = testing::skewed(apps::run_lassen_charm(cfg), skew_ns, seed);
  if (skew_ns == 0) {
    ASSERT_TRUE(trace::validate(t).empty());
  }
  LogicalStructure ls = extract_structure(t, Options::charm());
  auto problems = validate_structure(t, ls);
  EXPECT_TRUE(problems.empty()) << problems.front();
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, StressorMatrix,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 29),
                       ::testing::Bool(), ::testing::Bool(),
                       ::testing::Values<std::int64_t>(0, 1500)));

}  // namespace
}  // namespace logstruct::order
