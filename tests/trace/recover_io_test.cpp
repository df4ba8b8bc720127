/// End-to-end tests of fault-tolerant ingestion: the recovering .lstrace
/// and Projections readers, the structured save/load contract, and the
/// degraded-chare provenance that rides the serialized format. The
/// repair pass itself is unit-tested in repair_test.cpp; the corruption
/// matrix lives in the fault-injection property tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "apps/jacobi2d.hpp"
#include "obs/obs.hpp"
#include "order/stepping.hpp"
#include "trace/diagnostics.hpp"
#include "trace/io.hpp"
#include "trace/projections.hpp"
#include "trace/repair.hpp"
#include "trace/validate.hpp"

namespace logstruct::trace {
namespace {

Trace golden() {
  apps::Jacobi2DConfig cfg;
  cfg.chares_x = 4;
  cfg.chares_y = 4;
  cfg.num_pes = 4;
  cfg.iterations = 2;
  return apps::run_jacobi2d(cfg);
}

std::string serialize(const Trace& t) {
  std::ostringstream os;
  write_trace(t, os);
  return os.str();
}

TEST(RecoverIo, CleanLstraceRecoverEqualsStrict) {
  const std::string text = serialize(golden());

  std::istringstream strict_in(text);
  Trace strict = read_trace(strict_in);

  std::istringstream recover_in(text);
  RecoveryReport report;
  Trace recovered =
      read_trace(recover_in, ReadOptions::recovering(), report);

  EXPECT_TRUE(report.empty()) << report.to_string();
  // Bit-identical all the way down to the serialized bytes.
  EXPECT_EQ(serialize(recovered), text);
  EXPECT_EQ(serialize(strict), text);
}

TEST(RecoverIo, TruncatedTailSalvages) {
  const std::string text = serialize(golden());
  const std::string cut = text.substr(0, text.size() * 6 / 10);

  std::istringstream in(cut);
  RecoveryReport report;
  Trace t = read_trace(in, ReadOptions::recovering(), report);

  EXPECT_GE(report.count(DiagCode::TruncatedFile), 1);
  EXPECT_GT(t.num_events(), 0);
  EXPECT_TRUE(validate(t).empty());
  // The salvage must survive the full pipeline.
  order::LogicalStructure ls =
      order::extract_structure(t, order::Options::charm());
  EXPECT_GT(ls.num_phases(), 0);
}

TEST(RecoverIo, GarbledLinesAreSkippedAndCounted) {
  std::string text = serialize(golden());
  const std::size_t mid = text.find('\n', text.size() / 2) + 1;
  text.insert(mid, "totally bogus record\nevent X Y Z W\n");

  std::istringstream in(text);
  RecoveryReport report;
  Trace t = read_trace(in, ReadOptions::recovering(), report);

  EXPECT_GE(report.count(DiagCode::UnknownRecord) +
                report.count(DiagCode::ParseError),
            1);
  EXPECT_FALSE(report.fatal());
  EXPECT_GT(t.num_events(), 0);
  EXPECT_TRUE(validate(t).empty());
}

TEST(RecoverIo, StrictModeStillThrows) {
  std::string text = serialize(golden());
  const std::size_t mid = text.find('\n', text.size() / 2) + 1;
  text.insert(mid, "totally bogus record\n");

  std::istringstream a(text);
  EXPECT_THROW(read_trace(a), std::runtime_error);
  // The report overload never throws: a strict rejection is an empty
  // trace whose report keeps the reader's diagnostic and appends a Fatal
  // copy of it.
  std::istringstream b(text);
  RecoveryReport report;
  Trace t = read_trace(b, ReadOptions::strict(), report);
  EXPECT_TRUE(report.fatal());
  EXPECT_EQ(t.num_events(), 0);
  ASSERT_EQ(report.diagnostics().size(), 2u);
  EXPECT_EQ(report.diagnostics()[0].severity, Severity::Warning);
  EXPECT_EQ(report.diagnostics()[1].severity, Severity::Fatal);
  EXPECT_EQ(report.count(DiagCode::UnknownRecord), 2);
}

TEST(RecoverIo, BadHeaderIsFatalButDoesNotThrow) {
  std::istringstream in("not a trace at all\n1 2 3\n");
  RecoveryReport report;
  Trace t = read_trace(in, ReadOptions::recovering(), report);
  EXPECT_TRUE(report.fatal());
  EXPECT_EQ(report.count(DiagCode::BadHeader), 1);
  EXPECT_EQ(t.num_events(), 0);
}

TEST(RecoverIo, SaveReportsFailureStructurally) {
  RecoveryReport report;
  EXPECT_FALSE(
      save_trace(golden(), "/nonexistent-dir/x.lstrace", report));
  EXPECT_EQ(report.count(DiagCode::IoError), 1);
  EXPECT_TRUE(report.fatal());
}

TEST(RecoverIo, LoadReportsMissingFileStructurally) {
  RecoveryReport report;
  Trace t = load_trace("/nonexistent-dir/x.lstrace",
                       ReadOptions::recovering(), report);
  EXPECT_EQ(report.count(DiagCode::IoError), 1);
  EXPECT_TRUE(report.fatal());
  EXPECT_EQ(t.num_events(), 0);
  // The historical convenience overload still throws.
  EXPECT_THROW(load_trace("/nonexistent-dir/x.lstrace"),
               std::runtime_error);
}

TEST(RecoverIo, SaveLoadRoundTripBothModes) {
  const Trace t = golden();
  const std::string path = ::testing::TempDir() + "/recover_io_rt.lstrace";
  RecoveryReport save_report;
  ASSERT_TRUE(save_trace(t, path, save_report));
  EXPECT_TRUE(save_report.empty());

  RecoveryReport load_report;
  Trace strict_loaded = load_trace(path);
  Trace recovered =
      load_trace(path, ReadOptions::recovering(), load_report);
  EXPECT_TRUE(load_report.empty());
  EXPECT_EQ(serialize(strict_loaded), serialize(t));
  EXPECT_EQ(serialize(recovered), serialize(t));
  std::remove(path.c_str());
}

TEST(RecoverIo, CleanTraceSerializationHasNoDegradedRecord) {
  // Clean traces must serialize byte-identically to the historical
  // format: the "degraded" record is written only for repaired traces.
  const std::string text = serialize(golden());
  EXPECT_EQ(text.find("\ndegraded "), std::string::npos);
}

TEST(RecoverIo, DegradedCharesSurviveTheRoundTrip) {
  // Build a degraded trace via the repair path, then round-trip it
  // through the strict format.
  RawTrace raw;
  raw.num_procs = 1;
  raw.chares.push_back({0, ChareInfo{"c0", kNone, -1, 0, false}});
  raw.chares.push_back({1, ChareInfo{"c1", kNone, -1, 0, false}});
  raw.entries.push_back({0, EntryInfo{"e0", false, -1, {}}});
  raw.blocks.push_back({0, 0, 0, 0, 0, 100, true});
  raw.blocks.push_back({1, 1, 0, 0, 50, 150, true});
  raw.events.push_back({0, EventKind::Send, 10, 0, kNone});
  raw.events.push_back({1, EventKind::Recv, 60, 1, 99});  // dangling

  RecoveryReport report;
  repair(raw, report);
  Trace t = build_trace(std::move(raw), 1);
  ASSERT_EQ(t.num_degraded_chares(), 1);

  const std::string text = serialize(t);
  EXPECT_NE(text.find("\ndegraded 1 1\n"), std::string::npos) << text;

  std::istringstream in(text);
  Trace back = read_trace(in);
  EXPECT_EQ(back.num_degraded_chares(), 1);
  EXPECT_TRUE(back.is_degraded_chare(1));
  EXPECT_EQ(serialize(back), text);
}

// --- Projections ------------------------------------------------------

void cleanup(const std::string& prefix, std::int32_t pes) {
  std::remove((prefix + ".sts").c_str());
  for (std::int32_t p = 0; p < pes; ++p)
    std::remove((prefix + "." + std::to_string(p) + ".log").c_str());
}

TEST(RecoverIo, CleanProjectionsRecoverEqualsStrict) {
  Trace t = golden();
  const std::string prefix = ::testing::TempDir() + "/recover_proj_clean";
  ASSERT_TRUE(write_projections(t, prefix));

  Trace strict = read_projections(prefix);
  RecoveryReport report;
  Trace recovered =
      read_projections(prefix, ReadOptions::recovering(), report);
  EXPECT_TRUE(report.empty()) << report.to_string();
  EXPECT_EQ(serialize(recovered), serialize(strict));
  cleanup(prefix, t.num_procs());
}

TEST(RecoverIo, ProjectionsMissingLogRecovers) {
  Trace t = golden();
  const std::string prefix = ::testing::TempDir() + "/recover_proj_miss";
  ASSERT_TRUE(write_projections(t, prefix));
  std::remove((prefix + ".2.log").c_str());

  EXPECT_THROW(read_projections(prefix), std::runtime_error);

  RecoveryReport report;
  Trace salvaged =
      read_projections(prefix, ReadOptions::recovering(), report);
  EXPECT_GE(report.count(DiagCode::MissingLog), 1);
  EXPECT_FALSE(report.fatal());
  EXPECT_GT(salvaged.num_events(), 0);
  EXPECT_LT(salvaged.num_events(), t.num_events());
  EXPECT_TRUE(validate(salvaged).empty());
  order::LogicalStructure ls =
      order::extract_structure(salvaged, order::Options::charm());
  EXPECT_GT(ls.num_phases(), 0);
  cleanup(prefix, t.num_procs());
}

TEST(RecoverIo, ProjectionsTruncatedLogRecovers) {
  Trace t = golden();
  const std::string prefix = ::testing::TempDir() + "/recover_proj_trunc";
  ASSERT_TRUE(write_projections(t, prefix));

  const std::string log1 = prefix + ".1.log";
  std::string content;
  {
    std::ifstream f(log1);
    std::ostringstream os;
    os << f.rdbuf();
    content = os.str();
  }
  {
    std::ofstream f(log1, std::ios::trunc);
    f << content.substr(0, content.size() / 2);
  }

  RecoveryReport report;
  Trace salvaged =
      read_projections(prefix, ReadOptions::recovering(), report);
  EXPECT_GE(report.count(DiagCode::TruncatedFile), 1);
  EXPECT_GT(salvaged.num_events(), 0);
  EXPECT_TRUE(validate(salvaged).empty());
  cleanup(prefix, t.num_procs());
}

TEST(RecoverIo, ProjectionsMissingStsIsFatal) {
  RecoveryReport report;
  Trace t = read_projections(::testing::TempDir() + "/no_such_prefix",
                             ReadOptions::recovering(), report);
  EXPECT_TRUE(report.fatal());
  EXPECT_GE(report.count(DiagCode::IoError), 1);
  EXPECT_EQ(t.num_events(), 0);
}

#if LOGSTRUCT_OBS

// Every read, of either format, is one `trace/read` span carrying its
// byte/event/diagnostic counts, with one parse, the repair pass, and one
// freeze nested inside it; every save is one `trace/write` span.
TEST(RecoverIo, EachReadIsOneReadSpan) {
  const Trace t = golden();
  const std::string path = ::testing::TempDir() + "/recover_io_span.lstrace";
  const std::string prefix = ::testing::TempDir() + "/recover_io_span";
  obs::PipelineTracer::global().reset();
  ASSERT_TRUE(save_trace(t, path));
  {
    const std::vector<obs::Span> spans =
        obs::PipelineTracer::global().snapshot();
    const auto writes = std::count_if(
        spans.begin(), spans.end(),
        [](const obs::Span& s) { return s.name == "trace/write"; });
    EXPECT_EQ(writes, 1);
  }
  ASSERT_TRUE(write_projections(t, prefix));

  for (int format = 0; format < 2; ++format) {
    obs::PipelineTracer& tracer = obs::PipelineTracer::global();
    tracer.reset();
    const Trace back = format == 0 ? load_trace(path)
                                   : read_projections(prefix);
    const std::vector<obs::Span> spans = tracer.snapshot();
    std::vector<std::size_t> reads;
    for (std::size_t i = 0; i < spans.size(); ++i)
      if (spans[i].name == "trace/read") reads.push_back(i);
    ASSERT_EQ(reads.size(), 1u) << "format " << format;
    const obs::Span& read = spans[reads[0]];
    std::map<std::string, std::int64_t> attrs;
    for (const obs::SpanAttr& a : read.attrs) attrs[a.key] = a.value;
    EXPECT_GT(attrs["bytes"], 0);
    EXPECT_EQ(attrs["events"], back.num_events());
    EXPECT_EQ(attrs.count("diagnostics"), 1u);
    EXPECT_EQ(attrs["diagnostics"], 0);
    std::map<std::string, int> children;
    for (const obs::Span& s : spans)
      if (s.parent == static_cast<obs::SpanId>(reads[0])) ++children[s.name];
    EXPECT_EQ(children["trace/parse"], 1) << "format " << format;
    EXPECT_EQ(children["trace/repair"], 1) << "format " << format;
    EXPECT_EQ(children["trace/freeze"], 1) << "format " << format;
  }
  std::remove(path.c_str());
  cleanup(prefix, t.num_procs());
}

#endif  // LOGSTRUCT_OBS

}  // namespace
}  // namespace logstruct::trace
