/// Every proxy app's trace must survive the .lstrace round trip with its
/// logical structure intact — the guarantee a user relies on when
/// archiving traces for later analysis.

#include <gtest/gtest.h>

#include <sstream>

#include "apps/jacobi2d.hpp"
#include "apps/lassen.hpp"
#include "apps/lulesh.hpp"
#include "apps/mergetree.hpp"
#include "apps/nasbt.hpp"
#include "apps/pdes.hpp"
#include "order/stepping.hpp"
#include "trace/io.hpp"
#include "trace/validate.hpp"
#include "util/crc32c.hpp"

namespace logstruct {
namespace {

/// `crc` pins the CRC32C of the written bytes: the writer is
/// deterministic, and a faster writer must still write the same file.
void expect_roundtrip(const trace::Trace& t, const order::Options& opts,
                      std::uint32_t crc) {
  std::ostringstream os;
  trace::write_trace(t, os);
  EXPECT_EQ(util::crc32c(os.str().data(), os.str().size()), crc);
  std::istringstream is(os.str());
  trace::Trace back = trace::read_trace(is);

  ASSERT_TRUE(trace::validate(back).empty());
  ASSERT_EQ(back.num_events(), t.num_events());
  ASSERT_EQ(back.num_blocks(), t.num_blocks());
  ASSERT_EQ(back.idles().size(), t.idles().size());
  ASSERT_EQ(back.collectives().size(), t.collectives().size());

  order::LogicalStructure a = order::extract_structure(t, opts);
  order::LogicalStructure b = order::extract_structure(back, opts);
  EXPECT_EQ(a.global_step, b.global_step);
  EXPECT_EQ(a.phases.phase_of_event, b.phases.phase_of_event);
  EXPECT_EQ(a.w, b.w);
}

TEST(AppRoundTrip, Jacobi) {
  apps::Jacobi2DConfig cfg;
  cfg.chares_x = 4;
  cfg.chares_y = 4;
  cfg.num_pes = 4;
  cfg.iterations = 2;
  expect_roundtrip(apps::run_jacobi2d(cfg), order::Options::charm(),
                   0x1b333251u);
}

TEST(AppRoundTrip, JacobiWithMigration) {
  apps::Jacobi2DConfig cfg;
  cfg.chares_x = 4;
  cfg.chares_y = 4;
  cfg.num_pes = 4;
  cfg.iterations = 3;
  cfg.migrate_at_iteration = 1;
  expect_roundtrip(apps::run_jacobi2d(cfg), order::Options::charm(),
                   0x9d9ca8f3u);
}

TEST(AppRoundTrip, LuleshCharm) {
  apps::LuleshConfig cfg;
  cfg.iterations = 2;
  expect_roundtrip(apps::run_lulesh_charm(cfg), order::Options::charm(),
                   0x82754790u);
}

TEST(AppRoundTrip, LuleshMpi) {
  apps::LuleshConfig cfg;
  cfg.iterations = 2;
  expect_roundtrip(apps::run_lulesh_mpi(cfg), order::Options::mpi(),
                   0x2f11e33du);
}

TEST(AppRoundTrip, LassenCharm) {
  apps::LassenConfig cfg;
  cfg.iterations = 3;
  expect_roundtrip(apps::run_lassen_charm(cfg), order::Options::charm(),
                   0x8e9bd49au);
}

TEST(AppRoundTrip, LassenMpi) {
  apps::LassenConfig cfg;
  cfg.iterations = 3;
  expect_roundtrip(apps::run_lassen_mpi(cfg),
                   order::Options::mpi_baseline13(), 0x2ba18d7fu);
}

TEST(AppRoundTrip, Pdes) {
  apps::PdesConfig cfg;
  expect_roundtrip(apps::run_pdes(cfg), order::Options::charm(), 0xd4c94e0au);
}

TEST(AppRoundTrip, MergeTree) {
  apps::MergeTreeConfig cfg;
  cfg.num_ranks = 32;
  expect_roundtrip(apps::run_mergetree_mpi(cfg), order::Options::mpi(),
                   0x42842776u);
}

TEST(AppRoundTrip, NasBt) {
  apps::NasBtConfig cfg;
  expect_roundtrip(apps::run_nasbt_mpi(cfg), order::Options::mpi(),
                   0x109ce385u);
}

}  // namespace
}  // namespace logstruct
