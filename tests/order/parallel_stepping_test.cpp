/// §3.3: "As each phase is handled individually, this stage could be
/// parallelized." Verify the parallel step assignment is bit-identical to
/// the serial one across applications and thread counts.

#include <gtest/gtest.h>

#include "apps/jacobi2d.hpp"
#include "apps/lassen.hpp"
#include "apps/lulesh.hpp"
#include "order/stepping.hpp"

namespace logstruct::order {
namespace {

void expect_identical(const trace::Trace& t, Options base) {
  LogicalStructure serial = extract_structure(t, base);
  for (int threads : {2, 4, 8}) {
    Options par = base;
    par.threads = threads;
    LogicalStructure parallel = extract_structure(t, par);
    ASSERT_EQ(parallel.global_step, serial.global_step)
        << "threads=" << threads;
    ASSERT_EQ(parallel.local_step, serial.local_step);
    ASSERT_EQ(parallel.w, serial.w);
    ASSERT_EQ(parallel.chare_sequence, serial.chare_sequence);
    ASSERT_EQ(parallel.order_conflicts, serial.order_conflicts);
  }
}

TEST(ParallelStepping, JacobiIdentical) {
  apps::Jacobi2DConfig cfg;
  cfg.chares_x = 8;
  cfg.chares_y = 8;
  cfg.num_pes = 8;
  cfg.iterations = 4;
  expect_identical(apps::run_jacobi2d(cfg), Options::charm());
}

TEST(ParallelStepping, LuleshIdentical) {
  apps::LuleshConfig cfg;
  cfg.iterations = 6;
  expect_identical(apps::run_lulesh_charm(cfg), Options::charm());
}

TEST(ParallelStepping, LuleshMpiIdentical) {
  apps::LuleshConfig cfg;
  cfg.iterations = 4;
  expect_identical(apps::run_lulesh_mpi(cfg), Options::mpi());
}

TEST(ParallelStepping, LassenNoReorderIdentical) {
  apps::LassenConfig cfg;
  cfg.iterations = 5;
  expect_identical(apps::run_lassen_charm(cfg),
                   Options::charm_no_reorder());
}

TEST(ParallelStepping, MoreThreadsThanPhases) {
  apps::Jacobi2DConfig cfg;
  cfg.chares_x = 2;
  cfg.chares_y = 2;
  cfg.num_pes = 2;
  cfg.iterations = 1;
  expect_identical(apps::run_jacobi2d(cfg), Options::charm());
}

}  // namespace
}  // namespace logstruct::order
