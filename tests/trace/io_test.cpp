#include "trace/io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "trace/builder.hpp"
#include "trace/validate.hpp"
#include "trace_fixtures.hpp"

namespace logstruct::trace {
namespace {

TEST(TraceIo, RoundTripMiniTrace) {
  auto m = testing::make_mini_trace();
  std::ostringstream os;
  write_trace(m.trace, os);

  std::istringstream is(os.str());
  Trace back = read_trace(is);

  EXPECT_EQ(back.num_events(), m.trace.num_events());
  EXPECT_EQ(back.num_blocks(), m.trace.num_blocks());
  EXPECT_EQ(back.num_chares(), m.trace.num_chares());
  EXPECT_EQ(back.num_procs(), m.trace.num_procs());
  EXPECT_EQ(back.idles().size(), m.trace.idles().size());
  EXPECT_TRUE(validate(back).empty());

  // Re-serialization is byte-identical (deterministic format).
  std::ostringstream os2;
  write_trace(back, os2);
  EXPECT_EQ(os.str(), os2.str());
}

TEST(TraceIo, PreservesPartnersAndTriggers) {
  auto m = testing::make_mini_trace();
  std::ostringstream os;
  write_trace(m.trace, os);
  std::istringstream is(os.str());
  Trace back = read_trace(is);

  EXPECT_EQ(back.event(m.r_ab).partner, m.s_ab);
  EXPECT_EQ(back.event(m.s_ab).partner, m.r_ab);
  EXPECT_EQ(back.block(m.b0).trigger, m.r_ab);
}

TEST(TraceIo, PreservesBroadcastFanout) {
  TraceBuilder tb;
  ChareId c0 = tb.add_chare("c0");
  ChareId c1 = tb.add_chare("c1");
  ChareId c2 = tb.add_chare("c2");
  EntryId e = tb.add_entry("go");
  BlockId src = tb.begin_block(c0, 0, e, 0);
  EventId s = tb.add_send(src, 1);
  tb.end_block(src, 2);
  BlockId d1 = tb.begin_block(c1, 0, e, 10);
  tb.add_recv(d1, 10, s);
  tb.end_block(d1, 11);
  BlockId d2 = tb.begin_block(c2, 1, e, 12);
  tb.add_recv(d2, 12, s);
  tb.end_block(d2, 13);
  Trace t = tb.finish(2);

  std::ostringstream os;
  write_trace(t, os);
  std::istringstream is(os.str());
  Trace back = read_trace(is);
  EXPECT_EQ(back.receivers(s).size(), 2u);
}

TEST(TraceIo, PreservesCollectives) {
  TraceBuilder tb;
  ChareId c0 = tb.add_chare("r0");
  EntryId e = tb.add_entry("allreduce");
  CollectiveId coll = tb.begin_collective();
  BlockId b0 = tb.begin_block(c0, 0, e, 0);
  tb.add_collective_send(coll, b0, 0);
  tb.add_collective_recv(coll, b0, 5);
  tb.end_block(b0, 5);
  Trace t = tb.finish(1);

  std::ostringstream os;
  write_trace(t, os);
  std::istringstream is(os.str());
  Trace back = read_trace(is);
  ASSERT_EQ(back.collectives().size(), 1u);
  EXPECT_EQ(back.collectives()[0].sends.size(), 1u);
  EXPECT_EQ(back.collectives()[0].recvs.size(), 1u);
}

TEST(TraceIo, PreservesEntryMetadata) {
  TraceBuilder tb;
  tb.add_chare("c");
  EntryId when_e = tb.add_entry("recvResult");
  EntryId serial = tb.add_entry("serial_1", false, 1, {when_e});
  Trace t = tb.finish(1);

  std::ostringstream os;
  write_trace(t, os);
  std::istringstream is(os.str());
  Trace back = read_trace(is);
  EXPECT_EQ(back.entry(serial).sdag_serial, 1);
  ASSERT_EQ(back.entry(serial).when_entries.size(), 1u);
  EXPECT_EQ(back.entry(serial).when_entries[0], when_e);
}

TEST(TraceIo, NamesWithSpacesSurvive) {
  TraceBuilder tb;
  ChareId c = tb.add_chare("a chare with spaces");
  Trace t = tb.finish(1);
  std::ostringstream os;
  write_trace(t, os);
  std::istringstream is(os.str());
  Trace back = read_trace(is);
  EXPECT_EQ(back.chare(c).name, "a chare with spaces");
}

TEST(TraceIo, BadMagicThrows) {
  std::istringstream is("nottrace 1\nend\n");
  EXPECT_THROW(read_trace(is), std::runtime_error);
}

TEST(TraceIo, TruncatedFileThrows) {
  auto m = testing::make_mini_trace();
  std::ostringstream os;
  write_trace(m.trace, os);
  std::string text = os.str();
  text.resize(text.size() / 2);
  std::istringstream is(text);
  EXPECT_THROW(read_trace(is), std::runtime_error);
}

TEST(TraceIo, UnknownRecordThrows) {
  std::istringstream is("lstrace 1\nprocs 1\nbogus 1 2 3\nend\n");
  EXPECT_THROW(read_trace(is), std::runtime_error);
}

/// The mini trace serialized, with field `field` (1 = the one after the
/// id) of the first `<tag> 0` record replaced by `value`.
std::string mini_text_with(const std::string& tag, int field,
                           const std::string& value) {
  std::ostringstream os;
  write_trace(testing::make_mini_trace().trace, os);
  std::string text = os.str();
  std::size_t p = text.find("\n" + tag + " 0 ") + tag.size() + 4;
  for (int i = 1; i < field; ++i) p = text.find(' ', p) + 1;
  text.replace(p, text.find_first_of(" \n", p) - p, value);
  return text;
}

/// A malformed input must fail a strict read with std::runtime_error (no
/// crash) and give a recovering read a non-empty report and a trace
/// that passes validate().
void expect_rejected_and_salvaged(const std::string& text) {
  std::istringstream strict_in(text);
  EXPECT_THROW(read_trace(strict_in), std::runtime_error);

  std::istringstream recover_in(text);
  RecoveryReport report;
  Trace t = read_trace(recover_in, ReadOptions::recovering(), report);
  EXPECT_FALSE(report.empty());
  EXPECT_TRUE(validate(t).empty());
}

TEST(TraceIo, OutOfRangeBlockChareIsRejected) {
  expect_rejected_and_salvaged(mini_text_with("block", 1, "99999"));
}

TEST(TraceIo, EventOutsideBlockSpanIsRejected) {
  // Event 0 is a send at t=10 in block a0 = [0, 100].
  const std::string text = mini_text_with("event", 2, "999999");
  ASSERT_NE(text.find("\nevent 0 S 999999 "), std::string::npos) << text;
  expect_rejected_and_salvaged(text);
}

TEST(TraceIo, LoadMissingFileThrows) {
  EXPECT_THROW(load_trace("/nonexistent/file.lstrace"), std::runtime_error);
}

TEST(TraceIo, SaveLoadFileRoundTrip) {
  auto m = testing::make_mini_trace();
  std::string path = ::testing::TempDir() + "/io_test.lstrace";
  ASSERT_TRUE(save_trace(m.trace, path));
  Trace back = load_trace(path);
  EXPECT_EQ(back.num_events(), m.trace.num_events());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace logstruct::trace
