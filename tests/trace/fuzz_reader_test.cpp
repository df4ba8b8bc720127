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
#include "trace/storage/blocked_trace.hpp"
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

/// One fingerprint of a recovery: the diagnostics' codes and details in
/// report order, plus the report's total (stored or not).
std::uint64_t report_fingerprint(const RecoveryReport& report) {
  std::uint64_t h = 14695981039346656037ULL;  // FNV-1a
  auto mix = [&h](std::uint64_t byte) {
    h ^= byte & 0xffu;
    h *= 1099511628211ULL;
  };
  for (const Diagnostic& d : report.diagnostics()) {
    mix(static_cast<std::uint64_t>(d.code));
    for (char c : d.detail) mix(static_cast<unsigned char>(c));
    mix(0);
  }
  for (int i = 0; i < 8; ++i)
    mix(static_cast<std::uint64_t>(report.total()) >> (8 * i));
  return h;
}

TEST(FuzzReader, RepairOutcomesPinnedOverFaultMatrix) {
  // What repair() reports and recovers, pinned per (text fault, seed)
  // cell: any change in its passes' order or outcome moves a value.
  // PerturbTimestamps moves block begins, so it drives the per-PE
  // overlap pass through its out-of-order branch.
  struct Pin {
    std::uint64_t diagnostics;
    std::uint64_t trace;
  };
  // Recorded before the overlap pass and the freeze skipped sorting
  // runs already in order; both are total orders, so nothing moved.
  static constexpr Pin kPins[kNumTextFaultKinds][12] = {
      {  // drop_lines, seeds 1-12
          {0x6b239c6ecc35a3d4ULL, 0xf3fad26098b6f01cULL},
          {0x5ce680fd0ed235fcULL, 0x3869a2943e7ee9cbULL},
          {0x40d689940a09baa2ULL, 0xf513ca8d1108dd8aULL},
          {0xaf9d7137df749148ULL, 0xf4c9eba34b6f2b0dULL},
          {0x6b9b5d0e395a1e38ULL, 0x81c4f8fe69c4ba26ULL},
          {0x690c4c9b6114abb4ULL, 0x0830317a0901e2baULL},
          {0x86823d44a29c606aULL, 0x57868ad11b0a6ff4ULL},
          {0xe7464f20b2706ec1ULL, 0x790c6a369e322c5cULL},
          {0xabe674907f2243a1ULL, 0x25dfa7b2aa87fd65ULL},
          {0x599e01c7602d37d2ULL, 0x207ad5853de8c734ULL},
          {0x08ec0ad91062bd79ULL, 0x6b2f1078a6f2b039ULL},
          {0xbacb401bb4315ee2ULL, 0x058422d804853747ULL},
      },
      {  // truncate_tail, seeds 1-12
          {0xedf18bb597104f82ULL, 0xd2ad42113291a491ULL},
          {0xedf18bb597104f82ULL, 0x1b77f27d89316e5bULL},
          {0xeabe4d04d36b67c4ULL, 0x434fabddea3a18dbULL},
          {0xedf18bb597104f82ULL, 0xbd56fc7402696f88ULL},
          {0xedf18bb597104f82ULL, 0xfd0a084ff76ad56aULL},
          {0xedf18bb597104f82ULL, 0x9532b9075cc96e79ULL},
          {0x5c9c3f5cd1d403eaULL, 0xfd4e699e16cc4c25ULL},
          {0xedf18bb597104f82ULL, 0x228a62fe01e5689eULL},
          {0xf087f74dd5221671ULL, 0xa1668e512216cf4aULL},
          {0xff8740d04dea8fe6ULL, 0x507bcfbbea9db941ULL},
          {0xedf18bb597104f82ULL, 0xa5990cb1a5c3af3aULL},
          {0xfecb7ce445e7b2d6ULL, 0xf0bc3c6d61e31344ULL},
      },
      {  // duplicate_lines, seeds 1-12
          {0x2989be37009b5c96ULL, 0x6f076fc6adfcc646ULL},
          {0x31f3dce1677e0925ULL, 0x6f076fc6adfcc646ULL},
          {0xcc13587062e9438eULL, 0x6f076fc6adfcc646ULL},
          {0x2a34d981f1ec3da9ULL, 0x6f076fc6adfcc646ULL},
          {0x422c9534db99890dULL, 0x6f076fc6adfcc646ULL},
          {0x86368449818d6800ULL, 0x6f076fc6adfcc646ULL},
          {0xde048edaff9ed15eULL, 0x6f076fc6adfcc646ULL},
          {0xf5bc43f338308042ULL, 0x6f076fc6adfcc646ULL},
          {0xf69f688c07035a53ULL, 0x6f076fc6adfcc646ULL},
          {0x3ced7bb1346b55afULL, 0x6f076fc6adfcc646ULL},
          {0xf64b35748192cdb4ULL, 0x6f076fc6adfcc646ULL},
          {0xf910e2f29541150dULL, 0x6f076fc6adfcc646ULL},
      },
      {  // perturb_timestamps, seeds 1-12
          {0xfa60a280a3412d19ULL, 0xf69928528313e191ULL},
          {0xa35dcb74009f184bULL, 0x89d24e28c5d3c85fULL},
          {0x65f02c07da30e790ULL, 0x26ff8031c9760e07ULL},
          {0x1f541a9e3bded906ULL, 0x34d08c8def57b3f0ULL},
          {0x3ca88ea885f3ff2aULL, 0x7b836f968660cc76ULL},
          {0x838ad93c14ba435dULL, 0xc3eacb6ed5b69ff8ULL},
          {0x285ca84246dffdb3ULL, 0x3074d54a027c817eULL},
          {0x328178ef01d975dbULL, 0xecb608ba3bd679a8ULL},
          {0xcc32f6556deb7e98ULL, 0x6d30337ca6914918ULL},
          {0xc3680b2dfd119814ULL, 0x7393f12da48434b5ULL},
          {0xca12e812d9e8f210ULL, 0x5a25e1e0de8a3e93ULL},
          {0xba122f8db97766c7ULL, 0x47ee55d41688b716ULL},
      },
      {  // flip_bytes, seeds 1-12
          {0xdbecd9474366d9cfULL, 0xba6f8b4a0e032543ULL},
          {0xfbbaea058c3af055ULL, 0xde95bb550d0a30b1ULL},
          {0x1d0a153a9eeea607ULL, 0xbb50bccf30aa1e09ULL},
          {0x877e25d45ca6d982ULL, 0xc06bab750cd886c6ULL},
          {0x4ea60cf5f0383394ULL, 0xd02fb5f4951f7ae4ULL},
          {0x88c746b0633ae348ULL, 0x2d7520ed6e5b3d66ULL},
          {0x0d870a292964604dULL, 0x34c9e37939d5d005ULL},
          {0x61998b32510f0d82ULL, 0x4cdc08e89026ddbeULL},
          {0x833effb7eec1180aULL, 0xecdd80989b4661d9ULL},
          {0x49562b63beff64eaULL, 0x55ce31e194d15a6bULL},
          {0x391047eb11621c57ULL, 0xb9a655bcdca1996eULL},
          {0x0c76a69cbc352723ULL, 0x3bb8fce10f33a15bULL},
      },
  };
  const std::string text = golden_text();
  for (int k = 0; k < kNumTextFaultKinds; ++k) {
    const auto kind = static_cast<FaultKind>(k);
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      TraceCorruptor corruptor(seed);
      const std::string damaged = corruptor.corrupt(text, kind);
      SCOPED_TRACE(std::string(fault_kind_name(kind)) + " seed " +
                   std::to_string(seed));
      Trace t;
      const RecoveryReport report = recover_read(damaged, &t);
      const Pin got{report_fingerprint(report),
                    storage::trace_structure_hash(t)};
      const Pin& want = kPins[k][seed - 1];
      EXPECT_EQ(got.diagnostics, want.diagnostics);
      EXPECT_EQ(got.trace, want.trace);
    }
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
