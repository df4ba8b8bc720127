/// The two ways a trace reaches the freeze must agree: a clean .lstrace
/// read verifies its column form in place (trace/repair/salvaged stays
/// 0), while a RawTrace lifted record by record, as the blocked salvage
/// lifts a damaged container, runs the salvage passes. On each golden
/// trace both give the same trace, and neither reports anything. And for
/// every check the verifier makes, a one-field fault in a clean file
/// still makes a strict read fail with the first diagnostic the salvage
/// passes give.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "../order/golden_fixtures.hpp"
#include "obs/registry.hpp"
#include "trace/diagnostics.hpp"
#include "trace/io.hpp"
#include "trace/repair.hpp"
#include "trace/validate.hpp"

namespace logstruct::trace {
namespace {

std::int64_t salvaged() {
  return obs::Registry::global().counter("trace/repair/salvaged").value();
}

/// `t` as the blocked salvage lifts a container: metadata records under
/// their index, every event and block under its id, file-order idles.
RawTrace lift(const Trace& t) {
  RawTrace raw;
  raw.num_procs = t.num_procs();
  for (std::size_t i = 0; i < t.arrays().size(); ++i)
    raw.arrays.push_back({static_cast<std::int64_t>(i), t.arrays()[i]});
  for (std::size_t i = 0; i < t.chares().size(); ++i)
    raw.chares.push_back({static_cast<std::int64_t>(i), t.chares()[i]});
  for (std::size_t i = 0; i < t.entries().size(); ++i)
    raw.entries.push_back({static_cast<std::int64_t>(i), t.entries()[i]});
  for (const Collective& c : t.collectives())
    raw.collectives.push_back({{c.sends.begin(), c.sends.end()},
                               {c.recvs.begin(), c.recvs.end()}});
  for (ChareId c = 0; c < t.num_chares(); ++c)
    if (t.is_degraded_chare(c)) raw.degraded_chares.push_back(c);
  for (EventId id = 0; id < t.num_events(); ++id) {
    const Event e = t.event(id);
    raw.events.push_back({id, e.kind, e.time, e.block, e.partner});
  }
  for (BlockId id = 0; id < t.num_blocks(); ++id) {
    const SerialBlock b = t.block(id);
    raw.blocks.push_back({id, b.chare, b.proc, b.entry, b.begin, b.end, true});
  }
  for (const IdleSpan& s : t.idles()) raw.idles.push_back(s);
  return raw;
}

bool same_idles(const Trace& a, const Trace& b) {
  if (a.idles().size() != b.idles().size()) return false;
  for (std::size_t i = 0; i < a.idles().size(); ++i) {
    const IdleSpan x = a.idles()[i];
    const IdleSpan y = b.idles()[i];
    if (x.proc != y.proc || x.begin != y.begin || x.end != y.end)
      return false;
  }
  return true;
}

bool same_collectives(const Trace& a, const Trace& b) {
  if (a.collectives().size() != b.collectives().size()) return false;
  for (std::size_t i = 0; i < a.collectives().size(); ++i)
    if (a.collectives()[i].sends != b.collectives()[i].sends ||
        a.collectives()[i].recvs != b.collectives()[i].recvs)
      return false;
  return true;
}

TEST(Ingest, CleanReadMatchesSalvageOnEveryGolden) {
  const std::string path = ::testing::TempDir() + "/ingest_golden.lstrace";
  for (const auto& g : order::golden::kGoldens) {
    SCOPED_TRACE(g.name);
    const Trace t = g.make();
    ASSERT_TRUE(save_trace(t, path));

    RecoveryReport clean_report;
    [[maybe_unused]] const std::int64_t s0 = salvaged();
    const Trace clean = load_trace(path, ReadOptions{}, clean_report);
    [[maybe_unused]] const std::int64_t s1 = salvaged();
    EXPECT_TRUE(clean_report.empty()) << clean_report.to_string();

    RecoveryReport salvage_report;
    RawTrace raw = lift(t);
    repair(raw, salvage_report);
    const Trace salvage = build_trace(std::move(raw), 1);
    EXPECT_TRUE(salvage_report.empty()) << salvage_report.to_string();
#if LOGSTRUCT_OBS
    EXPECT_EQ(s1 - s0, 0) << "a clean file went through the salvage";
    EXPECT_EQ(salvaged() - s1, 1);
#endif

    EXPECT_EQ(storage::trace_structure_hash(clean),
              storage::trace_structure_hash(salvage));
    EXPECT_TRUE(same_idles(clean, salvage));
    EXPECT_TRUE(same_collectives(clean, salvage));
    EXPECT_TRUE(same_collectives(clean, t));
    for (ChareId c = 0; c < t.num_chares(); ++c) {
      EXPECT_EQ(clean.is_degraded_chare(c), salvage.is_degraded_chare(c));
      EXPECT_EQ(clean.is_degraded_chare(c), t.is_degraded_chare(c));
    }
    EXPECT_TRUE(validate(clean).empty());
  }
  std::remove(path.c_str());
}

/// The builder and the reader pick the same trigger for every block (its
/// first receive in (time, id) order, collective members included), so
/// a save/load round trip keeps the whole trace, triggers included.
TEST(Ingest, RoundTripKeepsTraceStructureHashOnEveryGolden) {
  const std::string path = ::testing::TempDir() + "/roundtrip_golden.lstrace";
  for (const auto& g : order::golden::kGoldens) {
    SCOPED_TRACE(g.name);
    const Trace t = g.make();
    ASSERT_TRUE(save_trace(t, path));
    const Trace back = load_trace(path);
    EXPECT_EQ(storage::trace_structure_hash(back),
              storage::trace_structure_hash(t));
  }
  std::remove(path.c_str());
}

/// A small clean trace touching every table the verifier checks: two
/// PEs, a matched pair per block boundary, a block with no events, an
/// entry with a when-list, idles, a collective and a degraded flag. Each
/// fault below trips one verifier check and no other.
constexpr const char* kClean =
    "lstrace 1\n"
    "procs 2\n"
    "array 0 0 | A\n"
    "chare 0 0 0 0 0 | c0\n"
    "chare 1 0 1 1 0 | c1\n"
    "entry 0 0 -1 0 | e0\n"
    "entry 1 0 -1 1 0 | e1\n"
    "block 0 0 0 0 0 10\n"
    "block 1 1 1 0 5 20\n"
    "block 2 0 0 1 10 30\n"
    "block 3 1 1 1 20 25\n"
    "event 0 S 2 0 1\n"
    "event 1 R 6 1 0\n"
    "event 2 S 12 1 3\n"
    "event 3 R 15 2 2\n"
    "idle 1 0 5\n"
    "idle 0 30 40\n"
    "idle 0 45 50\n"
    "coll 1 0 1 1\n"
    "degraded 1 1\n"
    "end\n";

TEST(Ingest, CleanSampleReadsStrictly) {
  std::istringstream in(kClean);
  RecoveryReport report;
  [[maybe_unused]] const std::int64_t s0 = salvaged();
  const Trace t = read_trace(in, ReadOptions{}, report);
  EXPECT_TRUE(report.empty()) << report.to_string();
#if LOGSTRUCT_OBS
  EXPECT_EQ(salvaged() - s0, 0);
#endif
  EXPECT_EQ(t.num_events(), 4);
  EXPECT_EQ(t.num_blocks(), 4);
  EXPECT_TRUE(t.is_degraded_chare(1));
  EXPECT_TRUE(validate(t).empty());
  std::ostringstream out;
  write_trace(t, out);
  EXPECT_EQ(out.str(), kClean);
}

TEST(Ingest, FileReadMatchesStreamReadAcrossBuffers) {
  // A file read goes through a reused buffer a run of lines at a time:
  // 400k blank lines and a 3 MiB name put lines across several buffer
  // boundaries and one line past the buffer's size, and the unknown
  // record near the end checks that line numbers carry over.
  std::string text = kClean;
  text.insert(text.find("array 0"), std::string(400000, '\n'));
  text.replace(text.find("| c1"), 4, "| " + std::string(3 << 20, 'n'));
  text.insert(text.find("end\n"), "bogus 1 2\n");
  const std::string path = ::testing::TempDir() + "/ingest_buffers.lstrace";
  {
    std::ofstream f(path, std::ios::binary);
    f << text;
  }
  RecoveryReport from_file;
  const Trace a = load_trace(path, ReadOptions::recovering(), from_file);
  std::remove(path.c_str());
  std::istringstream in(text);
  RecoveryReport from_stream;
  const Trace b = read_trace(in, ReadOptions::recovering(), from_stream);
  ASSERT_EQ(from_file.diagnostics().size(), 1u) << from_file.to_string();
  EXPECT_EQ(from_file.diagnostics()[0].code, DiagCode::UnknownRecord);
  EXPECT_EQ(from_file.to_string(), from_stream.to_string());
  EXPECT_EQ(storage::trace_structure_hash(a),
            storage::trace_structure_hash(b));
  EXPECT_EQ(a.chare(1).name.size(), std::size_t{3} << 20);
  EXPECT_EQ(a.num_events(), 4);
}

struct Fault {
  const char* check;     ///< the verifier check the edit trips
  const char* line;      ///< a line of kClean...
  const char* replaced;  ///< ...and what it becomes
  DiagCode first;        ///< the salvage's first diagnostic
};

constexpr Fault kFaults[] = {
    {"metadata ids dense", "chare 1 0 1 1 0 | c1", "chare 3 0 1 1 0 | c1",
     DiagCode::NonSequentialId},
    {"block ids dense", "block 1 1 1 0 5 20", "block 5 1 1 0 5 20",
     DiagCode::NonSequentialId},
    {"event ids dense", "event 2 S 12 1 3", "event 7 S 12 1 3",
     DiagCode::NonSequentialId},
    {"processor count", "procs 2", "procs 2000000", DiagCode::ParseError},
    {"chare array in range", "chare 1 0 1 1 0 | c1", "chare 1 4 1 1 0 | c1",
     DiagCode::StubbedMetadata},
    {"when-list in range", "entry 1 0 -1 1 0 | e1", "entry 1 0 -1 1 7 | e1",
     DiagCode::DanglingReference},
    {"block chare in range", "block 1 1 1 0 5 20", "block 1 9 1 0 5 20",
     DiagCode::StubbedMetadata},
    {"block proc in range", "block 1 1 1 0 5 20", "block 1 1 -3 0 5 20",
     DiagCode::DanglingReference},
    {"event block in range", "event 3 R 15 2 2", "event 3 R 15 9 2",
     DiagCode::DanglingReference},
    {"partner in range", "event 3 R 15 2 2", "event 3 R 15 2 99",
     DiagCode::DroppedDanglingPartner},
    {"partner is a send", "event 3 R 15 2 2", "event 3 R 15 2 1",
     DiagCode::DroppedDanglingPartner},
    {"time within 2^53", "block 2 0 0 1 10 30",
     "block 2 0 0 1 10 9007199254740993", DiagCode::ClampedTimestamp},
    {"block span ordered", "block 3 1 1 1 20 25", "block 3 1 1 1 20 19",
     DiagCode::SynthesizedBlockEnd},
    {"event inside its block", "event 3 R 15 2 2", "event 3 R 31 2 2",
     DiagCode::ClampedTimestamp},
    {"recv after its send", "event 3 R 15 2 2", "event 3 R 11 2 2",
     DiagCode::ClampedTimestamp},
    {"blocks on a PE disjoint", "block 2 0 0 1 10 30", "block 2 0 0 1 8 30",
     DiagCode::ClampedTimestamp},
    {"idle span non-empty", "idle 1 0 5", "idle 1 5 5",
     DiagCode::DroppedRecord},
    {"idle proc in range", "idle 1 0 5", "idle -1 0 5",
     DiagCode::DroppedRecord},
    {"idles on a PE disjoint", "idle 0 45 50", "idle 0 35 50",
     DiagCode::ClampedTimestamp},
    {"collective member kinds", "coll 1 0 1 1", "coll 1 1 1 1",
     DiagCode::DanglingReference},
    {"degraded chare in range", "degraded 1 1", "degraded 1 5",
     DiagCode::DanglingReference},
};

TEST(Ingest, EachVerifierCheckStillRejectsStrictly) {
  for (const Fault& f : kFaults) {
    SCOPED_TRACE(f.check);
    std::string text = kClean;
    const std::size_t at = text.find(std::string(f.line) + "\n");
    ASSERT_NE(at, std::string::npos);
    text.replace(at, std::string(f.line).size(), f.replaced);

    std::istringstream recover_in(text);
    RecoveryReport recovered;
    (void)read_trace(recover_in, ReadOptions::recovering(), recovered);
    ASSERT_FALSE(recovered.empty());
    const Diagnostic first = recovered.diagnostics().front();
    EXPECT_EQ(first.code, f.first) << recovered.to_string();

    std::istringstream strict_in(text);
    RecoveryReport strict;
    const Trace t = read_trace(strict_in, ReadOptions{}, strict);
    EXPECT_TRUE(strict.fatal());
    EXPECT_EQ(t.num_events(), 0);
    EXPECT_EQ(strict.diagnostics().back().detail,
              "strict read rejected the input: " + first.detail);

    std::istringstream throw_in(text);
    try {
      (void)read_trace(throw_in);
      ADD_FAILURE() << "strict read accepted the fault";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(first.detail), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace logstruct::trace
