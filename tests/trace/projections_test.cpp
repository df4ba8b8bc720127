#include "trace/projections.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <cstdio>
#include <iterator>
#include <stdexcept>

#include "apps/jacobi2d.hpp"
#include "apps/lassen.hpp"
#include "apps/lulesh.hpp"
#include "apps/pdes.hpp"
#include "order/stats.hpp"
#include "order/stepping.hpp"
#include "trace/diagnostics.hpp"
#include "trace/validate.hpp"

namespace logstruct::trace {
namespace {

void cleanup(const std::string& prefix, std::int32_t pes) {
  std::remove((prefix + ".sts").c_str());
  for (std::int32_t p = 0; p < pes; ++p)
    std::remove((prefix + "." + std::to_string(p) + ".log").c_str());
}

/// Event ids are renumbered by the reader; compare structure-level
/// invariants instead of raw ids.
void expect_equivalent(const Trace& a, const Trace& b,
                       const order::Options& opts) {
  ASSERT_EQ(b.num_events(), a.num_events());
  ASSERT_EQ(b.num_blocks(), a.num_blocks());
  ASSERT_EQ(b.num_chares(), a.num_chares());
  ASSERT_EQ(b.num_procs(), a.num_procs());
  ASSERT_EQ(b.idles().size(), a.idles().size());
  ASSERT_TRUE(validate(b).empty());

  order::LogicalStructure la = order::extract_structure(a, opts);
  order::LogicalStructure lb = order::extract_structure(b, opts);
  EXPECT_EQ(lb.num_phases(), la.num_phases());
  EXPECT_EQ(lb.max_step, la.max_step);

  // Step histograms must match exactly (ids may differ, content may not).
  auto histogram = [](const order::LogicalStructure& ls) {
    std::vector<std::int32_t> h(ls.global_step.begin(),
                                ls.global_step.end());
    std::sort(h.begin(), h.end());
    return h;
  };
  EXPECT_EQ(histogram(lb), histogram(la));
}

TEST(Projections, JacobiRoundTrip) {
  apps::Jacobi2DConfig cfg;
  cfg.chares_x = 4;
  cfg.chares_y = 4;
  cfg.num_pes = 4;
  cfg.iterations = 2;
  Trace t = apps::run_jacobi2d(cfg);
  std::string prefix = ::testing::TempDir() + "/proj_jacobi";
  ASSERT_TRUE(write_projections(t, prefix));
  Trace back = read_projections(prefix);
  expect_equivalent(t, back, order::Options::charm());
  cleanup(prefix, t.num_procs());
}

TEST(Projections, LuleshRoundTrip) {
  apps::LuleshConfig cfg;
  cfg.iterations = 2;
  Trace t = apps::run_lulesh_charm(cfg);
  std::string prefix = ::testing::TempDir() + "/proj_lulesh";
  ASSERT_TRUE(write_projections(t, prefix));
  Trace back = read_projections(prefix);
  expect_equivalent(t, back, order::Options::charm());
  cleanup(prefix, t.num_procs());
}

TEST(Projections, PdesUntracedDependencySurvives) {
  apps::PdesConfig cfg;
  Trace t = apps::run_pdes(cfg);
  std::string prefix = ::testing::TempDir() + "/proj_pdes";
  ASSERT_TRUE(write_projections(t, prefix));
  Trace back = read_projections(prefix);

  auto untraced = [](const Trace& tr) {
    int n = 0;
    for (const auto& e : tr.events())
      if (e.kind == EventKind::Recv && e.partner == kNone) ++n;
    return n;
  };
  EXPECT_EQ(untraced(back), untraced(t));
  EXPECT_GT(untraced(back), 0);
  cleanup(prefix, t.num_procs());
}

TEST(Projections, SdagMetadataSurvives) {
  apps::Jacobi2DConfig cfg;
  cfg.chares_x = 2;
  cfg.chares_y = 2;
  cfg.num_pes = 2;
  cfg.iterations = 1;
  Trace t = apps::run_jacobi2d(cfg);
  std::string prefix = ::testing::TempDir() + "/proj_sdag";
  ASSERT_TRUE(write_projections(t, prefix));
  Trace back = read_projections(prefix);
  bool found_serial = false;
  for (const auto& e : back.entries()) {
    if (e.sdag_serial >= 0 && !e.when_entries.empty()) found_serial = true;
  }
  EXPECT_TRUE(found_serial);
  cleanup(prefix, t.num_procs());
}

TEST(Projections, IdleSpansPreserved) {
  apps::Jacobi2DConfig cfg;
  cfg.chares_x = 4;
  cfg.chares_y = 4;
  cfg.num_pes = 8;
  cfg.iterations = 2;
  Trace t = apps::run_jacobi2d(cfg);
  ASSERT_FALSE(t.idles().empty());
  std::string prefix = ::testing::TempDir() + "/proj_idle";
  ASSERT_TRUE(write_projections(t, prefix));
  Trace back = read_projections(prefix);
  ASSERT_EQ(back.idles().size(), t.idles().size());
  for (ProcId p = 0; p < t.num_procs(); ++p)
    EXPECT_EQ(back.total_idle(p), t.total_idle(p));
  cleanup(prefix, t.num_procs());
}

TEST(Projections, CollectivesAreRejected) {
  apps::LuleshConfig cfg;
  cfg.iterations = 1;
  Trace t = apps::run_lulesh_mpi(cfg);  // has allreduce collectives
  EXPECT_FALSE(write_projections(t, ::testing::TempDir() + "/proj_mpi"));
}

TEST(Projections, MissingFilesThrow) {
  EXPECT_THROW(read_projections("/nonexistent/prefix"), std::runtime_error);
}

TEST(Projections, TruncatedLogThrows) {
  apps::Jacobi2DConfig cfg;
  cfg.chares_x = 2;
  cfg.chares_y = 2;
  cfg.num_pes = 2;
  cfg.iterations = 1;
  Trace t = apps::run_jacobi2d(cfg);
  std::string prefix = ::testing::TempDir() + "/proj_trunc";
  ASSERT_TRUE(write_projections(t, prefix));
  // Truncate PE 0's log.
  {
    std::string path = prefix + ".0.log";
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::trunc);
    out << content.substr(0, content.size() / 2);
  }
  EXPECT_THROW(read_projections(prefix), std::runtime_error);
  cleanup(prefix, t.num_procs());
}

TEST(Projections, OutOfRangeBeginProcessingChareIsRejected) {
  apps::Jacobi2DConfig cfg;
  cfg.chares_x = 2;
  cfg.chares_y = 2;
  cfg.num_pes = 2;
  cfg.iterations = 1;
  Trace t = apps::run_jacobi2d(cfg);
  std::string prefix = ::testing::TempDir() + "/proj_bad_chare";
  ASSERT_TRUE(write_projections(t, prefix));
  {
    // BEGIN_PROCESSING <entry> <time> <chare> ...: point the first block
    // of PE 0 at a chare that does not exist.
    const std::string path = prefix + ".0.log";
    std::ifstream in(path);
    std::string log((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    std::size_t p = log.find("BEGIN_PROCESSING ");
    ASSERT_NE(p, std::string::npos);
    p = log.find(' ', log.find(' ', p + 17) + 1) + 1;
    log.replace(p, log.find(' ', p) - p, "99999");
    std::ofstream out(path, std::ios::trunc);
    out << log;
  }
  EXPECT_THROW(read_projections(prefix), std::runtime_error);

  RecoveryReport report;
  Trace salvaged =
      read_projections(prefix, ReadOptions::recovering(), report);
  EXPECT_FALSE(report.empty());
  EXPECT_TRUE(validate(salvaged).empty());
  cleanup(prefix, t.num_procs());
}

}  // namespace
}  // namespace logstruct::trace
