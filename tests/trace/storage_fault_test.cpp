/// Fault-injection tests for the crash-safe storage layer: the FaultSpec
/// grammar, the deterministic FaultyIoEngine, the retry/backoff policy in
/// pread_all/pwrite_all, and the end-to-end contract of the `.lsblk`
/// container — every injected fault resolves to exactly one of
/// {transparent retry success, quarantine with provenance, clean
/// structured refusal}; never a crash, never silently wrong data.
///
/// The lsblk fault kinds of the TraceCorruptor (corruptor_test.cpp points
/// here) get their binary-container coverage in the single-block
/// corruption property and the torn-tail torture below; the CLI face of
/// the same matrix is tools/trace_corrupt --fault=lsblk.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "trace/diagnostics.hpp"
#include "trace/storage/block_store.hpp"
#include "trace/storage/blocked_trace.hpp"
#include "trace/storage/format.hpp"
#include "trace/storage/io_engine.hpp"
#include "trace/storage/options.hpp"
#include "trace_fixtures.hpp"
#include "util/crc32c.hpp"

namespace logstruct::trace::storage {
namespace {

std::string temp_path(const char* tag) {
  return ::testing::TempDir() + "ls_fault_" + tag + "_" +
         std::to_string(::getpid()) + ".lsblk";
}

/// Installs a fault engine for the scope of one test section and always
/// restores the default, even when the body throws.
class ScopedFaultEngine {
 public:
  explicit ScopedFaultEngine(IoEngine* engine) {
    IoEngine::set_current(engine);
  }
  ~ScopedFaultEngine() { IoEngine::set_current(nullptr); }
  ScopedFaultEngine(const ScopedFaultEngine&) = delete;
  ScopedFaultEngine& operator=(const ScopedFaultEngine&) = delete;
};

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// End of the data region: blocks are appended contiguously from the
/// header, so it is the header plus the sum of every block's size.
std::uint64_t data_end(const BlockStore& store) {
  std::uint64_t end = sizeof(FileHeader);
  for (std::uint32_t c = 0; c < kNumColumns; ++c) {
    const auto col = static_cast<ColumnId>(c);
    for (std::uint32_t b = 0; b < store.num_blocks(col); ++b)
      end += store.block_size(col, b);
  }
  return end;
}

// ------------------------------------------------------------ FaultSpec

TEST(FaultSpec, ParsesFullGrammar) {
  const FaultSpec s = FaultSpec::parse(
      "seed=7,eintr=0.1;eio=0.25,short_read=0.5;short_write=0.75,"
      "bitflip=0.01,enospc_at=4096,truncate_at=123");
  EXPECT_EQ(s.seed, 7u);
  EXPECT_DOUBLE_EQ(s.eintr, 0.1);
  EXPECT_DOUBLE_EQ(s.eio, 0.25);
  EXPECT_DOUBLE_EQ(s.short_read, 0.5);
  EXPECT_DOUBLE_EQ(s.short_write, 0.75);
  EXPECT_DOUBLE_EQ(s.bitflip, 0.01);
  EXPECT_EQ(s.enospc_at, 4096u);
  EXPECT_EQ(s.truncate_at, 123u);
}

TEST(FaultSpec, EmptyAndSeparatorsAreDefaults) {
  const FaultSpec d = FaultSpec::parse("");
  EXPECT_EQ(d.seed, 1u);
  EXPECT_DOUBLE_EQ(d.eio, 0.0);
  EXPECT_EQ(d.enospc_at, 0u);
  // Stray separators are tolerated; they carry no key=value.
  (void)FaultSpec::parse(",;,");
}

TEST(FaultSpec, RejectsTyposLoudly) {
  // A typo in CI must never silently disable the fault matrix.
  EXPECT_THROW((void)FaultSpec::parse("eioo=0.5"), std::invalid_argument);
  EXPECT_THROW((void)FaultSpec::parse("eio"), std::invalid_argument);
  EXPECT_THROW((void)FaultSpec::parse("eio=lots"), std::invalid_argument);
  EXPECT_THROW((void)FaultSpec::parse("eio=1.5"), std::invalid_argument);
  EXPECT_THROW((void)FaultSpec::parse("eio=-0.1"), std::invalid_argument);
  EXPECT_THROW((void)FaultSpec::parse("enospc_at=12x"),
               std::invalid_argument);
}

// ------------------------------------------------------- FaultyIoEngine

TEST(FaultyIoEngine, DeterministicPerSeed) {
  const std::string path = temp_path("det");
  write_file(path, std::string(4096, 'x'));
  const int fd = ::open(path.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);

  const FaultSpec spec = FaultSpec::parse(
      "seed=42,eintr=0.3,eio=0.3,short_read=0.3,bitflip=0.05");
  auto run = [&](FaultyIoEngine& io) {
    // Record (result, errno, bytes) for an identical call sequence.
    std::vector<long> results;
    std::vector<int> errnos;
    std::string bytes;
    for (int i = 0; i < 64; ++i) {
      char buf[256];
      std::memset(buf, 0, sizeof(buf));
      errno = 0;
      const long n =
          io.pread(fd, buf, sizeof(buf),
                   static_cast<std::uint64_t>((i * 37) % 3800));
      results.push_back(n);
      errnos.push_back(n < 0 ? errno : 0);
      bytes.append(buf, sizeof(buf));
    }
    return std::make_tuple(results, errnos, bytes);
  };
  FaultyIoEngine a(spec), b(spec);
  EXPECT_EQ(run(a), run(b));
  EXPECT_GT(a.faults_injected(), 0u);
  ::close(fd);
  std::remove(path.c_str());
}

TEST(FaultyIoEngine, BitflipIsPersistentAcrossRereads) {
  const std::string path = temp_path("flip");
  const std::string clean(512, '\0');
  write_file(path, clean);
  const int fd = ::open(path.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);

  FaultyIoEngine io(FaultSpec::parse("seed=9,bitflip=1.0"));
  char first[512], second[512];
  ASSERT_EQ(io.pread(fd, first, sizeof(first), 0), 512);
  ASSERT_EQ(io.pread(fd, second, sizeof(second), 0), 512);
  // Keyed on file offset, not on the call: every re-read sees the same
  // damage (this is why read_block's single re-read is meaningful — a
  // retry must not make real corruption disappear).
  EXPECT_EQ(std::memcmp(first, second, sizeof(first)), 0);
  EXPECT_NE(std::string(first, sizeof(first)), clean);
  ::close(fd);
  std::remove(path.c_str());
}

TEST(FaultyIoEngine, TransientRetrySucceedsThroughPreadAll) {
  const std::string path = temp_path("retry");
  std::string content(8192, '\0');
  for (std::size_t i = 0; i < content.size(); ++i)
    content[i] = static_cast<char>(i * 31);
  write_file(path, content);
  const int fd = ::open(path.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);

  // EINTR storms, transient EIO, and short reads all at once: pread_all
  // must still deliver exact bytes every time.
  FaultyIoEngine io(
      FaultSpec::parse("seed=3,eintr=0.5,eio=0.2,short_read=0.5"));
  IoContext ctx;
  ctx.op = "retry test read";
  ctx.path = &path;
  for (int round = 0; round < 32; ++round) {
    std::vector<char> buf(1024);
    // Stride keeps every 1 KiB read inside the 8 KiB file.
    const std::uint64_t off = static_cast<std::uint64_t>(round) * 224;
    pread_all(io, fd, buf.data(), buf.size(), off, ctx);
    ASSERT_EQ(std::memcmp(buf.data(), content.data() + off, buf.size()), 0)
        << "round " << round;
  }
  EXPECT_GT(io.faults_injected(), 0u);
  ::close(fd);
  std::remove(path.c_str());
}

TEST(FaultyIoEngine, EnospcIsTerminalWithContext) {
  const std::string path = temp_path("enospc");
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_RDWR, 0644);
  ASSERT_GE(fd, 0);

  FaultyIoEngine io(FaultSpec::parse("enospc_at=64"));
  IoContext ctx;
  ctx.op = "write block";
  ctx.path = &path;
  ctx.column = 3;
  ctx.block = 7;
  const std::string big(256, 'z');
  try {
    pwrite_all(io, fd, big.data(), big.size(), 0, ctx);
    FAIL() << "ENOSPC never surfaced";
  } catch (const StorageError& e) {
    EXPECT_EQ(e.code(), DiagCode::IoError);
    const std::string what = e.what();
    // The structured context: op, path, column, block, offset.
    EXPECT_NE(what.find("write block"), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("col=3"), std::string::npos) << what;
    EXPECT_NE(what.find("block=7"), std::string::npos) << what;
  }
  ::close(fd);
  std::remove(path.c_str());
}

TEST(FaultyIoEngine, TruncateAtReadsAsTornTail) {
  const std::string path = temp_path("torn");
  write_file(path, std::string(200, 'q'));
  const int fd = ::open(path.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);

  FaultyIoEngine io(FaultSpec::parse("truncate_at=100"));
  IoContext ctx;
  ctx.op = "read tail";
  ctx.path = &path;
  char buf[150];
  // Before the tear: fine.
  pread_all(io, fd, buf, 50, 0, ctx);
  // Across the tear: EOF mid-range must surface as ContainerTruncated
  // with the missing-byte census in the message.
  try {
    pread_all(io, fd, buf, sizeof(buf), 0, ctx);
    FAIL() << "torn tail read unexpectedly succeeded";
  } catch (const StorageError& e) {
    EXPECT_EQ(e.code(), DiagCode::ContainerTruncated);
    EXPECT_NE(std::string(e.what()).find("bytes missing"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(io.file_size(fd), 100);
  ::close(fd);
  std::remove(path.c_str());
}

// ------------------------------------------------- container end-to-end

struct CleanContainer {
  std::string path;
  std::uint64_t hash = 0;
  std::string image;
  std::uint64_t end_of_data = 0;
};

/// One mini-trace container written with the system engine (4 KiB blocks
/// force several blocks per primary column).
CleanContainer make_clean(const char* tag) {
  CleanContainer c;
  c.path = temp_path(tag);
  testing::MiniTrace m = testing::make_mini_trace();
  c.hash = trace_structure_hash(m.trace);
  write_blocked_file(m.trace, c.path, 4096);
  c.image = read_file(c.path);
  BlockStore store(c.path);
  c.end_of_data = data_end(store);
  return c;
}

TEST(StorageFault, TransientFaultsAreInvisibleEndToEnd) {
  const CleanContainer clean = make_clean("transparent");
  const std::string path = temp_path("transparent_rt");

  // Whole write + read round trip on a disk that storms EINTR, throws
  // transient EIO, and short-reads/writes. The retry policy must make
  // all of it invisible: identical structure hash, no diagnostics.
  FaultyIoEngine faulty(FaultSpec::parse(
      "seed=11,eintr=0.2,eio=0.05,short_read=0.25,short_write=0.25"));
  {
    ScopedFaultEngine scope(&faulty);
    testing::MiniTrace m = testing::make_mini_trace();
    write_blocked_file(m.trace, path, 4096);
    Trace back = open_blocked_trace(path);
    EXPECT_EQ(trace_structure_hash(back), clean.hash);
  }
  EXPECT_GT(faulty.faults_injected(), 0u);

  // The file written under fault injection is readable by a clean engine
  // too (short writes resumed correctly — no holes).
  Trace back = open_blocked_trace(path);
  EXPECT_EQ(trace_structure_hash(back), clean.hash);
  std::remove(path.c_str());
  std::remove(clean.path.c_str());
}

TEST(StorageFault, CrashDuringFreezeTortureSalvagesOrRefuses) {
  const CleanContainer clean = make_clean("torture_ref");
  const std::uint64_t S = clean.image.size();
  ASSERT_GT(S, 400u);

  // Byte budgets spanning the whole commit sequence: death in the first
  // data block, mid-data, mid-tail, during the header patch, during the
  // footer. (The engine meters cumulative bytes written, which includes
  // the 40-byte header placeholder and the 40-byte patch, so budgets
  // near S land inside the tail/footer writes.)
  const std::uint64_t budgets[] = {
      50,     100,      1000,      S / 4,  S / 2,
      3 * S / 4, S - 100, S - 45, S - 20, S - 4, S + 39, 4 * S};
  for (const std::uint64_t budget : budgets) {
    const std::string path = temp_path("torture");
    FaultyIoEngine faulty(
        FaultSpec::parse("enospc_at=" + std::to_string(budget)));
    bool died = false;
    {
      ScopedFaultEngine scope(&faulty);
      try {
        testing::MiniTrace m = testing::make_mini_trace();
        write_blocked_file(m.trace, path, 4096);
      } catch (const StorageError&) {
        died = true;  // the "crash": writer killed mid-commit
      }
    }

    // Recovering open of whatever survived: salvage or clean refusal,
    // never a crash, never silently wrong data.
    RecoveryReport report;
    Trace t = open_blocked_trace(path, StorageOptions::recovering(),
                                 report);
    if (!died) {
      // Budget never hit: a complete commit must verify clean.
      EXPECT_TRUE(report.empty()) << "budget " << budget << "\n"
                                  << report.to_string();
      EXPECT_EQ(trace_structure_hash(t), clean.hash)
          << "budget " << budget;
    } else {
      // Torn: the recovering open must notice (a torn container is
      // never mistaken for a clean one)...
      EXPECT_FALSE(report.empty()) << "budget " << budget;
      // ...and a salvage that reports no data loss must be bit-exact.
      if (!report.fatal() && t.num_events() > 0 && report.ok()) {
        EXPECT_EQ(trace_structure_hash(t), clean.hash)
            << "budget " << budget;
      }
    }
    std::remove(path.c_str());
  }
  std::remove(clean.path.c_str());
}

TEST(StorageFault, TornTailTruncationTorture) {
  const CleanContainer clean = make_clean("truncate_ref");
  const std::uint64_t S = clean.image.size();
  const std::uint64_t tail = S - clean.end_of_data;

  // Cuts inside the footer, exactly at the footer boundary, inside the
  // directory/CRC tables, and deep into the data region.
  const std::uint64_t cuts[] = {S - 1,
                                S - 8,
                                S - sizeof(CommitFooter),
                                S - sizeof(CommitFooter) - 1,
                                clean.end_of_data + tail / 2,
                                clean.end_of_data,
                                clean.end_of_data / 2,
                                sizeof(FileHeader) + 1};
  for (const std::uint64_t cut : cuts) {
    const std::string path = temp_path("cut");
    write_file(path, clean.image.substr(0, cut));

    // Strict open must refuse a torn container outright.
    EXPECT_THROW(BlockStore strict(path), StorageError) << "cut " << cut;

    // Recovering open: notice, then salvage or cleanly refuse.
    RecoveryReport report;
    Trace t = open_blocked_trace(path, StorageOptions::recovering(),
                                 report);
    EXPECT_FALSE(report.empty()) << "cut " << cut;
    if (t.num_events() > 0 && report.ok()) {
      EXPECT_EQ(trace_structure_hash(t), clean.hash) << "cut " << cut;
    }
    // A cut that only removed the footer loses no data: full salvage.
    if (cut == S - 8 || cut == S - sizeof(CommitFooter)) {
      EXPECT_EQ(trace_structure_hash(t), clean.hash) << "cut " << cut;
    }
    std::remove(path.c_str());
  }
  std::remove(clean.path.c_str());
}

TEST(StorageFault, SingleBlockCorruptionDetectedAcrossSeeds) {
  const CleanContainer clean = make_clean("flipseed");
  ASSERT_GT(clean.end_of_data, sizeof(FileHeader));

  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    // Flip one bit somewhere in the data region. Every data byte
    // belongs to exactly one checksummed block (blocks are packed with
    // no slack), so detection must be unconditional.
    std::mt19937_64 rng(seed);
    const std::uint64_t span = clean.end_of_data - sizeof(FileHeader);
    const std::uint64_t at = sizeof(FileHeader) + rng() % span;
    std::string damaged = clean.image;
    damaged[at] = static_cast<char>(
        static_cast<unsigned char>(damaged[at]) ^
        static_cast<unsigned char>(1u << (rng() % 8)));
    const std::string path = temp_path("flipseed_run");
    write_file(path, damaged);

    // Strict: the flipped block must throw before its bytes escape.
    bool detected = false;
    {
      BlockStore store(path);  // header + tail are intact: open succeeds
      for (std::uint32_t c = 0; c < kNumColumns && !detected; ++c) {
        const auto col = static_cast<ColumnId>(c);
        for (std::uint32_t b = 0; b < store.num_blocks(col); ++b) {
          std::vector<char> buf(store.block_size(col, b));
          try {
            store.read_block(col, b, buf.data());
          } catch (const StorageError& e) {
            EXPECT_EQ(e.code(), DiagCode::BlockChecksumMismatch)
                << "seed " << seed;
            detected = true;
            break;
          }
        }
      }
    }
    EXPECT_TRUE(detected) << "seed " << seed << " flip at " << at;

    // Recovering: quarantined with provenance, never silently wrong.
    RecoveryReport report;
    Trace t = open_blocked_trace(path, StorageOptions::recovering(),
                                 report);
    EXPECT_FALSE(report.empty()) << "seed " << seed;
    if (t.num_events() > 0 && report.ok()) {
      EXPECT_EQ(trace_structure_hash(t), clean.hash) << "seed " << seed;
    }
    std::remove(path.c_str());
  }
  std::remove(clean.path.c_str());
}

TEST(StorageFault, QuarantineFailsFastWithProvenance) {
  const CleanContainer clean = make_clean("quarantine");
  // Damage the first data block (the byte right after the header).
  std::string damaged = clean.image;
  damaged[sizeof(FileHeader) + 8] ^= 0x10;
  const std::string path = temp_path("quarantine_run");
  write_file(path, damaged);

  RecoveryReport report;
  BlockStore store(path, OpenOptions::recovering(&report));
  ASSERT_TRUE(store.salvageable());
  const std::int64_t bad = store.scan_blocks(&report);
  EXPECT_GE(bad, 1);
  EXPECT_EQ(store.num_quarantined(), bad);
  // scan_blocks is idempotent.
  EXPECT_EQ(store.scan_blocks(nullptr), bad);

  bool found = false;
  for (std::uint32_t c = 0; c < kNumColumns && !found; ++c) {
    const auto col = static_cast<ColumnId>(c);
    for (std::uint32_t b = 0; b < store.num_blocks(col); ++b) {
      if (!store.is_quarantined(col, b)) continue;
      found = true;
      EXPECT_EQ(store.verify_block(col, b), BlockStatus::ChecksumMismatch);
      // Fast-fail: read_block must throw without returning poison (and
      // without the bytes ever reaching the block cache).
      std::vector<char> buf(store.block_size(col, b));
      try {
        store.read_block(col, b, buf.data());
        ADD_FAILURE() << "quarantined block served bytes";
      } catch (const StorageError& e) {
        EXPECT_EQ(e.code(), DiagCode::BlockChecksumMismatch);
        EXPECT_NE(std::string(e.what()).find("quarantined"),
                  std::string::npos)
            << e.what();
      }
      break;
    }
  }
  EXPECT_TRUE(found);
  // The diagnostics carry machine-readable provenance.
  EXPECT_FALSE(report.ok());
  std::remove(path.c_str());
  std::remove(clean.path.c_str());
}

/// Version 2 is the one container version: a clean container whose
/// header version field says 1 is refused as a bad header, by a throw on
/// a strict open and by one Fatal diagnostic on a recovering one.
TEST(StorageFault, OtherVersionHeadersAreRefused) {
  const CleanContainer clean = make_clean("v1_header");
  std::string image = clean.image;
  const std::uint32_t v1 = 1;
  std::memcpy(image.data() + offsetof(FileHeader, version), &v1,
              sizeof(v1));
  write_file(clean.path, image);

  try {
    BlockStore store(clean.path);
    ADD_FAILURE() << "a version 1 header opened";
  } catch (const StorageError& e) {
    EXPECT_EQ(e.code(), DiagCode::BadHeader);
    EXPECT_NE(std::string(e.what()).find("unsupported version"),
              std::string::npos)
        << e.what();
  }

  RecoveryReport report;
  Trace t =
      open_blocked_trace(clean.path, StorageOptions::recovering(), report);
  EXPECT_TRUE(report.fatal()) << report.to_string();
  EXPECT_EQ(report.total(), 1) << report.to_string();
  EXPECT_EQ(report.count(DiagCode::BadHeader), 1);
  EXPECT_EQ(t.num_events(), 0);
  std::remove(clean.path.c_str());
}

/// The writer's bytes are pinned: two writes of one trace are identical
/// (record padding goes to disk zeroed, not as whatever memory held),
/// and the container's CRC32C is the value recorded from the writer that
/// still had a v1 branch, with its padding zeroed and the checksums that
/// cover it recomputed, so dropping that branch changed no other byte.
TEST(StorageFault, WriterBytesArePinned) {
  const CleanContainer first = make_clean("pin_a");
  const CleanContainer second = make_clean("pin_b");
  EXPECT_EQ(first.image, second.image);
  EXPECT_EQ(util::crc32c(first.image.data(), first.image.size()),
            0x34fba8bcu);
  std::remove(first.path.c_str());
  std::remove(second.path.c_str());
}

TEST(StorageFault, WriterSurfacesOpenFailureWithPath) {
  const std::string path =
      ::testing::TempDir() + "no_such_dir_ls_fault/x.lsblk";
  try {
    BlockStoreWriter w(path, 4096);
    FAIL() << "open of a missing directory succeeded";
  } catch (const StorageError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace logstruct::trace::storage
