/// Unit tests for trace::repair(): each fix class is exercised on a
/// hand-built RawTrace so the exact diagnostic, the exact mutation, and
/// the degraded-chare provenance are pinned down individually. The
/// end-to-end behavior over whole corrupted files lives in
/// tests/trace/recover_io_test.cpp and the fault-injection property
/// tests.

#include "trace/repair.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "obs/registry.hpp"
#include "trace/diagnostics.hpp"
#include "trace/validate.hpp"

namespace logstruct::trace {
namespace {

/// Two chares on two PEs, one entry, two blocks, a matched send/recv
/// pair. Fully well-formed: repair() must be the identity on it.
RawTrace make_raw() {
  RawTrace raw;
  raw.num_procs = 2;
  raw.chares.push_back({0, ChareInfo{"c0", kNone, -1, 0, false}});
  raw.chares.push_back({1, ChareInfo{"c1", kNone, -1, 1, false}});
  raw.entries.push_back({0, EntryInfo{"e0", false, -1, {}}});
  raw.blocks.push_back({0, 0, 0, 0, 0, 100, true});
  raw.blocks.push_back({1, 1, 1, 0, 50, 150, true});
  raw.events.push_back({0, EventKind::Send, 10, 0, kNone});
  raw.events.push_back({1, EventKind::Recv, 60, 1, 0});
  return raw;
}

TEST(Repair, IdentityOnWellFormedInput) {
  RawTrace raw = make_raw();
  RecoveryReport report;
  repair(raw, report);
  EXPECT_TRUE(report.empty()) << report.to_string();

  Trace t = build_trace(std::move(raw), 1);
  EXPECT_EQ(t.num_events(), 2);
  EXPECT_EQ(t.num_blocks(), 2);
  EXPECT_EQ(t.num_chares(), 2);
  EXPECT_EQ(t.num_degraded_chares(), 0);
  EXPECT_TRUE(validate(t).empty());
  // The send-side partner is rebuilt from the recv side.
  EXPECT_EQ(t.event(0).partner, 1);
  EXPECT_EQ(t.event(1).partner, 0);
}

TEST(Repair, SynthesizesMissingBlockEnd) {
  RawTrace raw = make_raw();
  raw.blocks[1].has_end = false;
  raw.blocks[1].end = 0;
  RecoveryReport report;
  repair(raw, report);
  EXPECT_EQ(report.count(DiagCode::SynthesizedBlockEnd), 1);
  EXPECT_TRUE(raw.blocks[1].has_end);
  // End = latest event in the block (the recv at t=60).
  EXPECT_EQ(raw.blocks[1].end, 60);
  EXPECT_TRUE(validate(build_trace(std::move(raw), 1)).empty());
}

TEST(Repair, ResetsEndBeforeBegin) {
  RawTrace raw = make_raw();
  raw.blocks[1].end = 10;  // before begin=50
  RecoveryReport report;
  repair(raw, report);
  EXPECT_GE(report.count(DiagCode::SynthesizedBlockEnd), 1);
  EXPECT_GE(raw.blocks[1].end, raw.blocks[1].begin);
  EXPECT_TRUE(validate(build_trace(std::move(raw), 1)).empty());
}

TEST(Repair, DropsDanglingRecvPartnerAndDegradesChare) {
  RawTrace raw = make_raw();
  raw.events[1].partner = 99;  // the send line was lost
  RecoveryReport report;
  repair(raw, report);
  EXPECT_EQ(report.count(DiagCode::DroppedDanglingPartner), 1);
  EXPECT_EQ(raw.events[1].partner, kNone);

  Trace t = build_trace(std::move(raw), 1);
  EXPECT_EQ(t.num_degraded_chares(), 1);
  EXPECT_TRUE(t.is_degraded_chare(1));
  EXPECT_FALSE(t.is_degraded_chare(0));
  EXPECT_TRUE(validate(t).empty());
}

TEST(Repair, DeduplicatesRepeatedRecords) {
  RawTrace raw = make_raw();
  raw.chares.push_back({1, ChareInfo{"c1-again", kNone, -1, 0, false}});
  raw.events.push_back({0, EventKind::Send, 10, 0, kNone});
  RecoveryReport report;
  repair(raw, report);
  EXPECT_EQ(report.count(DiagCode::DeduplicatedRecord), 2);

  Trace t = build_trace(std::move(raw), 1);
  EXPECT_EQ(t.num_chares(), 2);
  EXPECT_EQ(t.num_events(), 2);
  EXPECT_EQ(t.chare(1).name, "c1");  // first copy wins
}

TEST(Repair, StubsMetadataGaps) {
  RawTrace raw = make_raw();
  raw.chares[1].id = 3;       // chares 1 and 2 were lost
  raw.blocks[1].chare = 3;    // keep the block's reference alive
  RecoveryReport report;
  repair(raw, report);
  EXPECT_EQ(report.count(DiagCode::NonSequentialId), 1);
  EXPECT_EQ(report.count(DiagCode::StubbedMetadata), 2);

  Trace t = build_trace(std::move(raw), 1);
  ASSERT_EQ(t.num_chares(), 4);
  EXPECT_EQ(t.chare(1).name, "<recovered chare 1>");
  EXPECT_EQ(t.chare(3).name, "c1");
  EXPECT_TRUE(validate(t).empty());
}

TEST(Repair, ClampsEventIntoBlockSpan) {
  RawTrace raw = make_raw();
  raw.events[1].time = 500;  // block 1 spans [50, 150]
  RecoveryReport report;
  repair(raw, report);
  EXPECT_GE(report.count(DiagCode::ClampedTimestamp), 1);
  EXPECT_EQ(raw.events[1].time, 150);
  EXPECT_TRUE(validate(build_trace(std::move(raw), 1)).empty());
}

TEST(Repair, ClampsRecvThatPrecedesItsSend) {
  RawTrace raw = make_raw();
  raw.events[0].time = 70;
  raw.events[1].time = 55;  // before the send, inside its own block
  RecoveryReport report;
  repair(raw, report);
  EXPECT_GE(report.count(DiagCode::ClampedTimestamp), 1);
  EXPECT_EQ(raw.events[1].time, 70);
  EXPECT_EQ(raw.events[1].partner, 0);  // the match survives
  EXPECT_TRUE(validate(build_trace(std::move(raw), 1)).empty());
}

TEST(Repair, DropsMatchWhenClampWouldLeaveBlock) {
  RawTrace raw = make_raw();
  raw.blocks[1].end = 60;
  raw.events[0].time = 70;  // send after the recv's whole block
  raw.events[1].time = 55;
  RecoveryReport report;
  repair(raw, report);
  EXPECT_EQ(report.count(DiagCode::DroppedDanglingPartner), 1);
  EXPECT_EQ(raw.events[1].partner, kNone);

  Trace t = build_trace(std::move(raw), 1);
  EXPECT_EQ(t.num_degraded_chares(), 2);  // both sides quarantined
  EXPECT_TRUE(validate(t).empty());
}

TEST(Repair, DropsEventsOfLostBlocks) {
  RawTrace raw = make_raw();
  raw.events.push_back({2, EventKind::Send, 70, 7, kNone});  // no block 7
  RecoveryReport report;
  repair(raw, report);
  EXPECT_EQ(report.count(DiagCode::DanglingReference), 1);

  Trace t = build_trace(std::move(raw), 1);
  EXPECT_EQ(t.num_events(), 2);
  EXPECT_TRUE(validate(t).empty());
}

TEST(Repair, ClampsOverlappingBlocksOnOneProc) {
  // Blocks listed out of begin order on both procs. Proc 0: block 0
  // begins inside block 4. Proc 1: block 2 begins inside block 3, and
  // clamping it makes it cover block 1's begin, a chained overlap.
  RawTrace raw;
  raw.num_procs = 2;
  raw.chares.push_back({0, ChareInfo{"c0", kNone, -1, 0, false}});
  raw.chares.push_back({1, ChareInfo{"c1", kNone, -1, 1, false}});
  raw.entries.push_back({0, EntryInfo{"e0", false, -1, {}}});
  raw.blocks.push_back({0, 0, 0, 0, 100, 200, true});
  raw.blocks.push_back({1, 1, 1, 0, 150, 180, true});
  raw.blocks.push_back({2, 1, 1, 0, 100, 200, true});
  raw.blocks.push_back({3, 1, 1, 0, 0, 150, true});
  raw.blocks.push_back({4, 0, 0, 0, 0, 150, true});
  raw.events.push_back({0, EventKind::Send, 120, 0, kNone});
  raw.events.push_back({1, EventKind::Send, 180, 0, kNone});
  raw.events.push_back({2, EventKind::Send, 110, 2, kNone});
  raw.events.push_back({3, EventKind::Send, 160, 1, kNone});
  raw.events.push_back({4, EventKind::Send, 10, 3, kNone});
  RecoveryReport report;
  repair(raw, report);

  const std::vector<std::string> want = {
      "block 0 began at t=100 inside block 4 on proc 0; begin clamped to "
      "t=150",
      "block 2 began at t=100 inside block 3 on proc 1; begin clamped to "
      "t=150",
      "block 1 began at t=150 inside block 2 on proc 1; begin clamped to "
      "t=200",
  };
  ASSERT_EQ(report.diagnostics().size(), want.size()) << report.to_string();
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(report.diagnostics()[i].code, DiagCode::ClampedTimestamp);
    EXPECT_EQ(report.diagnostics()[i].detail, want[i]);
  }

  // (begin, end) per block: 0 and 2 start at their predecessor's end,
  // and 1, pushed past its own end, becomes an empty span.
  const std::vector<std::pair<TimeNs, TimeNs>> spans = {
      {150, 200}, {200, 200}, {150, 200}, {0, 150}, {0, 150}};
  for (std::size_t b = 0; b < spans.size(); ++b) {
    EXPECT_EQ(raw.blocks[b].begin, spans[b].first) << "block " << b;
    EXPECT_EQ(raw.blocks[b].end, spans[b].second) << "block " << b;
  }
  // Events the clamps left behind are dragged into the new spans; the
  // rest keep their times.
  const std::vector<TimeNs> times = {150, 180, 150, 200, 10};
  for (std::size_t e = 0; e < times.size(); ++e)
    EXPECT_EQ(raw.events[e].time, times[e]) << "event " << e;
  EXPECT_TRUE(validate(build_trace(std::move(raw), 1)).empty());
}

TEST(Repair, StrayEmptyBlockResolvedInOneSweep) {
  // One PE, k abutting blocks [10i, 10i + 10] and an empty block with id
  // k at [1, 1]. Clamped to block 0's end it ties with block 1's begin
  // and block 1 has the lower id, so it waits for every later block: one
  // sweep moves it to the end, where a sweep per position once moved it
  // one block at a time with a diagnostic each.
  constexpr std::int64_t k = 100000;
  RawTrace raw;
  raw.num_procs = 1;
  raw.chares.push_back({0, ChareInfo{"c0", kNone, -1, 0, false}});
  raw.entries.push_back({0, EntryInfo{"e0", false, -1, {}}});
  for (std::int64_t i = 0; i < k; ++i)
    raw.blocks.push_back({i, 0, 0, 0, 10 * i, 10 * i + 10, true});
  raw.blocks.push_back({k, 0, 0, 0, 1, 1, true});
  RecoveryReport report;
#if LOGSTRUCT_OBS
  obs::Counter& sweeps =
      obs::Registry::global().counter("trace/repair/overlap_sweeps");
  const std::int64_t sweeps0 = sweeps.value();
#endif
  repair(raw, report);
#if LOGSTRUCT_OBS
  EXPECT_LE(sweeps.value() - sweeps0, 2);
#endif
  ASSERT_EQ(report.diagnostics().size(), 1u) << report.to_string();
  EXPECT_EQ(report.diagnostics()[0].code, DiagCode::ClampedTimestamp);
  EXPECT_EQ(report.diagnostics()[0].detail,
            "block 100000 began at t=1 inside block 99999 on proc 0; begin "
            "clamped to t=1000000");
  EXPECT_EQ(raw.blocks.back().begin, 10 * k);
  EXPECT_EQ(raw.blocks.back().end, 10 * k);
  EXPECT_TRUE(validate(build_trace(std::move(raw), 1)).empty());
}

TEST(Repair, CleansIdleSpans) {
  RawTrace raw = make_raw();
  raw.idles.push_back({0, 10, 20});
  raw.idles.push_back({0, 10, 20});   // exact duplicate
  raw.idles.push_back({0, 15, 30});   // overlaps the first
  raw.idles.push_back({0, 40, 40});   // empty
  RecoveryReport report;
  repair(raw, report);
  EXPECT_GE(report.count(DiagCode::DeduplicatedRecord), 1);
  EXPECT_GE(report.count(DiagCode::ClampedTimestamp), 1);
  EXPECT_GE(report.count(DiagCode::DroppedRecord), 1);
  ASSERT_EQ(raw.idles.size(), 2u);
  EXPECT_EQ(raw.idles[1].begin, 20);  // clamped to the previous end
  EXPECT_TRUE(validate(build_trace(std::move(raw), 1)).empty());
}

TEST(Repair, RemapsCollectiveMembers) {
  RawTrace raw = make_raw();
  raw.collectives.push_back({{0}, {1, 77}});  // 77 never existed
  RecoveryReport report;
  repair(raw, report);
  EXPECT_EQ(report.count(DiagCode::DanglingReference), 1);

  Trace t = build_trace(std::move(raw), 1);
  ASSERT_EQ(t.collectives().size(), 1u);
  EXPECT_EQ(t.collectives()[0].sends.size(), 1u);
  EXPECT_EQ(t.collectives()[0].recvs.size(), 1u);
}

TEST(Repair, DropsImplausibleIds) {
  RawTrace raw = make_raw();
  // One flipped digit must not allocate gigabytes of stubs.
  raw.events.push_back({9000000000000LL, EventKind::Send, 10, 0, kNone});
  RecoveryReport report;
  repair(raw, report);
  EXPECT_EQ(report.count(DiagCode::DroppedRecord), 1);
  Trace t = build_trace(std::move(raw), 1);
  EXPECT_EQ(t.num_events(), 2);
}

TEST(Repair, EmptySalvageBuildsEmptyTrace) {
  RawTrace raw;
  RecoveryReport report;
  repair(raw, report);
  EXPECT_TRUE(report.empty());
  Trace t = build_trace(std::move(raw), 1);
  EXPECT_EQ(t.num_events(), 0);
  EXPECT_EQ(t.num_blocks(), 0);
  EXPECT_TRUE(validate(t).empty());
}

}  // namespace
}  // namespace logstruct::trace
