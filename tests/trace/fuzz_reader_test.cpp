/// Byte-level fuzz of the trace readers: a deterministic seed sweep over
/// the TraceCorruptor's fault matrix plus raw random bytes. The contract
/// under test is narrow and absolute — the recovering reader NEVER
/// throws on malformed content and always terminates; the strict reader
/// succeeds exactly when recovery reports nothing and otherwise throws
/// std::runtime_error (never UB — the CI sanitizer job runs this same
/// sweep under ASan+UBSan). Seeds are fixed, so a failure reproduces
/// identically everywhere.

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "apps/jacobi2d.hpp"
#include "trace/corruptor.hpp"
#include "trace/diagnostics.hpp"
#include "trace/io.hpp"
#include "trace/validate.hpp"
#include "util/rng.hpp"

namespace logstruct::trace {
namespace {

std::string golden_text() {
  apps::Jacobi2DConfig cfg;
  cfg.chares_x = 4;
  cfg.chares_y = 4;
  cfg.num_pes = 4;
  cfg.iterations = 2;
  std::ostringstream os;
  write_trace(apps::run_jacobi2d(cfg), os);
  return os.str();
}

/// Recovering read; any throw fails the test.
RecoveryReport recover_read(const std::string& text, Trace* out = nullptr) {
  std::istringstream in(text);
  RecoveryReport report;
  Trace t = read_trace(in, ReadOptions::recovering(), report);
  EXPECT_TRUE(validate(t).empty());
  if (out) *out = std::move(t);
  return report;
}

/// Strict read: it succeeds exactly when a recovering read of the same
/// bytes reports nothing, and every success passes validate(); a
/// rejection is a std::runtime_error. Anything else (other exception
/// types, crashes, sanitizer trips) is a bug.
void strict_read_is_contained(const std::string& text) {
  const bool clean = recover_read(text).empty();
  std::istringstream in(text);
  try {
    Trace t = read_trace(in);
    EXPECT_TRUE(clean) << "strict read accepted what recovery reports";
    EXPECT_TRUE(validate(t).empty());
  } catch (const std::runtime_error&) {
    EXPECT_FALSE(clean) << "strict read rejected a clean input";
  }
}

TEST(FuzzReader, CorruptorMatrixSeedSweep) {
  const std::string text = golden_text();
  for (int k = 0; k < kNumFaultKinds; ++k) {
    const auto kind = static_cast<FaultKind>(k);
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      TraceCorruptor corruptor(seed);
      const std::string damaged = corruptor.corrupt(text, kind);
      SCOPED_TRACE(std::string(fault_kind_name(kind)) + " seed " +
                   std::to_string(seed));
      RecoveryReport report = recover_read(damaged);
      // The corruptor changed bytes, so recovery must have noticed
      // something; silence would mean damage slipped through unseen.
      if (damaged != text) {
        EXPECT_GT(report.total(), 0);
      }
      strict_read_is_contained(damaged);
    }
  }
}

TEST(FuzzReader, StackedFaultsSeedSweep) {
  // Real damage is rarely a single clean fault class: stack every class
  // on top of one another and the reader must still hold the contract.
  const std::string text = golden_text();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    TraceCorruptor corruptor(seed);
    std::string damaged = text;
    for (int k = 0; k < kNumFaultKinds; ++k)
      damaged = corruptor.corrupt(damaged, static_cast<FaultKind>(k));
    SCOPED_TRACE("seed " + std::to_string(seed));
    RecoveryReport report = recover_read(damaged);
    EXPECT_GT(report.total(), 0);
    strict_read_is_contained(damaged);
  }
}

TEST(FuzzReader, RandomBytesNeverCrashTheReaders) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    util::Rng rng(seed);
    std::string junk(1024 + seed * 257, '\0');
    for (char& c : junk)
      c = static_cast<char>(rng.uniform_range(0, 255));
    SCOPED_TRACE("seed " + std::to_string(seed));
    RecoveryReport report = recover_read(junk);
    EXPECT_FALSE(report.empty());
    strict_read_is_contained(junk);
  }
}

TEST(FuzzReader, ValidHeaderThenGarbage) {
  // A correct magic line followed by random printable junk: recovery
  // must skip every garbled record and still terminate.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
    std::string text = "lstrace 1\n";
    for (int line = 0; line < 200; ++line) {
      const int len = static_cast<int>(rng.uniform_range(1, 40));
      for (int i = 0; i < len; ++i)
        text += static_cast<char>(rng.uniform_range(32, 126));
      text += '\n';
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    RecoveryReport report = recover_read(text);
    EXPECT_GT(report.total(), 0);
    strict_read_is_contained(text);
  }
}

TEST(FuzzReader, HugeClaimedListLengthsAreRejected) {
  // A flipped digit in a list length must not allocate gigabytes; both
  // modes must refuse implausible lengths outright.
  const std::string text =
      "lstrace 1\nprocs 1\narray 0 0|a\nchare 0 0 0 0 0|c\n"
      "entry 0 0 -1 999999999 |e\nend\n";
  strict_read_is_contained(text);
  RecoveryReport report = recover_read(text);
  EXPECT_GT(report.total(), 0);
}

}  // namespace
}  // namespace logstruct::trace
