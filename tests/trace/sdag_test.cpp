#include "trace/sdag.hpp"

#include <gtest/gtest.h>

#include "trace/builder.hpp"

namespace logstruct::trace {
namespace {

// A chare that runs: serial_0 [0,10], recvResult [20,25], serial_1 [25,40]
// where serial_1 has `when recvResult`. The recvResult block is contiguous
// with serial_1 and must be absorbed.
struct SdagTrace {
  Trace trace;
  ChareId c;
  EntryId e_when, e_s0, e_s1;
  BlockId b_s0, b_when, b_s1;
};

SdagTrace make_sdag_trace() {
  SdagTrace m;
  TraceBuilder tb;
  m.c = tb.add_chare("c");
  m.e_when = tb.add_entry("recvResult");
  m.e_s0 = tb.add_entry("serial_0", false, 0);
  m.e_s1 = tb.add_entry("serial_1", false, 1, {m.e_when});

  m.b_s0 = tb.begin_block(m.c, 0, m.e_s0, 0);
  tb.add_send(m.b_s0, 5);
  tb.end_block(m.b_s0, 10);

  m.b_when = tb.begin_block(m.c, 0, m.e_when, 20);
  tb.add_recv(m.b_when, 20, kNone);
  tb.end_block(m.b_when, 25);

  m.b_s1 = tb.begin_block(m.c, 0, m.e_s1, 25);
  tb.add_send(m.b_s1, 30);
  tb.end_block(m.b_s1, 40);

  m.trace = tb.finish(1);
  return m;
}

TEST(Sdag, WhenBlockAbsorbedIntoSerial) {
  auto m = make_sdag_trace();
  auto rep = sdag_relations(m.trace).rep;
  EXPECT_EQ(rep[static_cast<std::size_t>(m.b_when)], m.b_s1);
  EXPECT_EQ(rep[static_cast<std::size_t>(m.b_s0)], m.b_s0);
  EXPECT_EQ(rep[static_cast<std::size_t>(m.b_s1)], m.b_s1);
}

TEST(Sdag, SerialNumbersPerBlock) {
  auto m = make_sdag_trace();
  const auto serial = sdag_relations(m.trace).serial;
  ASSERT_EQ(serial.size(), 3u);
  EXPECT_EQ(serial[static_cast<std::size_t>(m.b_s0)], 0);
  EXPECT_EQ(serial[static_cast<std::size_t>(m.b_when)], -1);
  EXPECT_EQ(serial[static_cast<std::size_t>(m.b_s1)], 1);
}

TEST(Sdag, NonContiguousWhenNotAbsorbed) {
  TraceBuilder tb;
  ChareId c = tb.add_chare("c");
  EntryId e_when = tb.add_entry("recvResult");
  EntryId e_s1 = tb.add_entry("serial_1", false, 1, {e_when});
  BlockId b_when = tb.begin_block(c, 0, e_when, 0);
  tb.add_recv(b_when, 0, kNone);
  tb.end_block(b_when, 5);
  BlockId b_s1 = tb.begin_block(c, 0, e_s1, 50);  // gap: scheduler ran others
  tb.end_block(b_s1, 60);
  Trace t = tb.finish(1);
  auto rep = sdag_relations(t).rep;
  EXPECT_EQ(rep[static_cast<std::size_t>(b_when)], b_when);
}

TEST(Sdag, DifferentProcNotAbsorbed) {
  TraceBuilder tb;
  ChareId c = tb.add_chare("c");
  EntryId e_when = tb.add_entry("recvResult");
  EntryId e_s1 = tb.add_entry("serial_1", false, 1, {e_when});
  BlockId b_when = tb.begin_block(c, 0, e_when, 0);
  tb.end_block(b_when, 5);
  BlockId b_s1 = tb.begin_block(c, 1, e_s1, 5);  // migrated between blocks
  tb.end_block(b_s1, 10);
  Trace t = tb.finish(2);
  auto rep = sdag_relations(t).rep;
  EXPECT_EQ(rep[static_cast<std::size_t>(b_when)], b_when);
}

TEST(Sdag, HappenedBeforeLinksAdjacentSerials) {
  auto m = make_sdag_trace();
  auto hb = sdag_relations(m.trace).happened_before;
  ASSERT_EQ(hb.size(), 1u);
  EXPECT_EQ(hb[0].first, m.b_s0);
  EXPECT_EQ(hb[0].second, m.b_s1);
}

TEST(Sdag, HappenedBeforeNearestInstanceOnly) {
  // serial_0, serial_1, serial_0, serial_1: each 0 links to the next 1,
  // never across a new instance of serial_0.
  TraceBuilder tb;
  ChareId c = tb.add_chare("c");
  EntryId s0 = tb.add_entry("serial_0", false, 0);
  EntryId s1 = tb.add_entry("serial_1", false, 1);
  BlockId a = tb.begin_block(c, 0, s0, 0);
  tb.end_block(a, 1);
  BlockId b = tb.begin_block(c, 0, s1, 2);
  tb.end_block(b, 3);
  BlockId d = tb.begin_block(c, 0, s0, 4);
  tb.end_block(d, 5);
  BlockId e = tb.begin_block(c, 0, s1, 6);
  tb.end_block(e, 7);
  Trace t = tb.finish(1);
  auto hb = sdag_relations(t).happened_before;
  ASSERT_EQ(hb.size(), 2u);
  EXPECT_EQ(hb[0], (std::pair<BlockId, BlockId>{a, b}));
  EXPECT_EQ(hb[1], (std::pair<BlockId, BlockId>{d, e}));
}

TEST(Sdag, NoSerialsNoEdges) {
  TraceBuilder tb;
  ChareId c = tb.add_chare("c");
  EntryId e = tb.add_entry("plain");
  BlockId b = tb.begin_block(c, 0, e, 0);
  tb.end_block(b, 1);
  Trace t = tb.finish(1);
  EXPECT_TRUE(sdag_relations(t).happened_before.empty());
  auto rep = sdag_relations(t).rep;
  EXPECT_EQ(rep[0], b);
}

TEST(Sdag, NonConsecutiveSerialNumbersNotLinked) {
  TraceBuilder tb;
  ChareId c = tb.add_chare("c");
  EntryId s0 = tb.add_entry("serial_0", false, 0);
  EntryId s2 = tb.add_entry("serial_2", false, 2);
  BlockId a = tb.begin_block(c, 0, s0, 0);
  tb.end_block(a, 1);
  BlockId b = tb.begin_block(c, 0, s2, 2);
  tb.end_block(b, 3);
  Trace t = tb.finish(1);
  EXPECT_TRUE(sdag_relations(t).happened_before.empty());
}

}  // namespace
}  // namespace logstruct::trace
