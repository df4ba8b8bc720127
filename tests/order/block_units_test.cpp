#include "order/block_units.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "golden_fixtures.hpp"
#include "order/context.hpp"
#include "trace/builder.hpp"
#include "trace/sdag.hpp"
#include "trace/storage/options.hpp"

namespace logstruct::order {
namespace {

/// when-block [recv] immediately followed by serial_1 [send] on one chare.
struct AbsorbTrace {
  trace::Trace trace;
  trace::BlockId b_when, b_serial;
  trace::EventId recv, send;
};

AbsorbTrace make_absorb_trace() {
  AbsorbTrace m;
  trace::TraceBuilder tb;
  trace::ChareId c = tb.add_chare("c");
  trace::ChareId d = tb.add_chare("d");
  trace::EntryId e_when = tb.add_entry("recvResult");
  trace::EntryId e_serial = tb.add_entry("serial_1", false, 1, {e_when});
  trace::EntryId e_plain = tb.add_entry("plain");

  m.b_when = tb.begin_block(c, 0, e_when, 0);
  m.recv = tb.add_recv(m.b_when, 0, trace::kNone);
  tb.end_block(m.b_when, 10);
  m.b_serial = tb.begin_block(c, 0, e_serial, 10);
  m.send = tb.add_send(m.b_serial, 15);
  tb.end_block(m.b_serial, 20);
  // Match the send somewhere.
  trace::BlockId bd = tb.begin_block(d, 1, e_plain, 100);
  tb.add_recv(bd, 100, m.send);
  tb.end_block(bd, 110);
  m.trace = tb.finish(2);
  return m;
}

/// The block rows as plain lists, indexed by block.
std::vector<std::vector<trace::EventId>> rows(const BlockUnits& u) {
  std::vector<std::vector<trace::EventId>> out;
  for (trace::BlockId b = 0; b < u.num_blocks(); ++b)
    out.emplace_back(u.events(b).begin(), u.events(b).end());
  return out;
}

Options with_inference(bool sdag_inference) {
  Options o;
  o.partition.sdag_inference = sdag_inference;
  return o;
}

TEST(BlockUnits, AbsorptionGroupsWhenIntoSerial) {
  AbsorbTrace m = make_absorb_trace();
  OrderContext ctx(m.trace, with_inference(true));
  const std::vector<trace::BlockId>& unit = ctx.unit_of_block();
  EXPECT_EQ(unit[static_cast<std::size_t>(m.b_when)], m.b_serial);
  EXPECT_EQ(unit[static_cast<std::size_t>(m.b_serial)], m.b_serial);
  // Both events key the serial's unit.
  const EventRows& ev = ctx.event_rows();
  for (const trace::EventId e : {m.recv, m.send})
    EXPECT_EQ(unit[static_cast<std::size_t>(
                  ev.block[static_cast<std::size_t>(e)])],
              m.b_serial);
  // The block rows the partition passes read stay apart.
  EXPECT_EQ(ctx.units().events(m.b_when).size(), 1u);
  EXPECT_EQ(ctx.units().events(m.b_serial).size(), 1u);
}

TEST(BlockUnits, WithoutAbsorptionBlocksStaySeparate) {
  AbsorbTrace m = make_absorb_trace();
  OrderContext ctx(m.trace, with_inference(false));
  const std::vector<trace::BlockId>& unit = ctx.unit_of_block();
  EXPECT_EQ(unit[static_cast<std::size_t>(m.b_when)], m.b_when);
  EXPECT_EQ(unit[static_cast<std::size_t>(m.b_serial)], m.b_serial);
  EXPECT_EQ(ctx.units().events(m.b_when).size(), 1u);
  EXPECT_EQ(ctx.units().events(m.b_serial).size(), 1u);
}

TEST(BlockUnits, EventlessBlocksHaveEmptyUnits) {
  trace::TraceBuilder tb;
  trace::ChareId c = tb.add_chare("c");
  trace::EntryId e = tb.add_entry("go");
  trace::BlockId b = tb.begin_block(c, 0, e, 0);
  tb.end_block(b, 10);
  trace::Trace t = tb.finish(1);
  OrderContext ctx(t, Options{});
  EXPECT_TRUE(ctx.units().events(b).empty());
  EXPECT_EQ(ctx.unit_of_block().size(), 1u);
}

/// Reference units as plain per-block lists.
struct ListUnits {
  std::vector<trace::BlockId> rep;
  std::vector<std::vector<trace::EventId>> events;
  std::vector<trace::BlockId> unit_of_event;
};

/// The units as built before they came from the frozen orders: every
/// block's events appended to its unit, then each unit sorted with
/// Trace::before.
ListUnits sorted_units(const trace::Trace& t, bool sdag_absorption) {
  ListUnits u;
  if (sdag_absorption) {
    u.rep = trace::sdag_relations(t).rep;
  } else {
    u.rep.resize(static_cast<std::size_t>(t.num_blocks()));
    std::iota(u.rep.begin(), u.rep.end(), 0);
  }
  u.events.assign(static_cast<std::size_t>(t.num_blocks()), {});
  u.unit_of_event.assign(static_cast<std::size_t>(t.num_events()),
                         trace::kNone);
  for (trace::BlockId b = 0; b < t.num_blocks(); ++b) {
    const trace::BlockId r = u.rep[static_cast<std::size_t>(b)];
    for (trace::EventId e : t.events_of_block(b)) {
      u.events[static_cast<std::size_t>(r)].push_back(e);
      u.unit_of_event[static_cast<std::size_t>(e)] = r;
    }
  }
  for (auto& list : u.events)
    std::sort(list.begin(), list.end(),
              [&t](trace::EventId a, trace::EventId b) {
                return t.before(a, b);
              });
  return u;
}

/// The block rows read off the frozen orders equal the sort-built raw
/// units, and each event's unit key, unit_of_block()[rows.block[e]],
/// equals the sort-built unit of either absorption setting, on every
/// golden trace and both storage backends.
TEST(BlockUnits, MatchSortBuiltUnitsOnGoldens) {
  using trace::storage::BackendKind;
  bool absorbed_multi_block = false;
  for (const golden::Golden& g : golden::kGoldens) {
    for (const BackendKind kind : {BackendKind::Mem, BackendKind::Blocked}) {
      trace::storage::StorageOptions opts;
      opts.kind = kind;
      opts.block_bytes = 4096;
      trace::storage::ScopedStorageOptions scope(opts);
      const trace::Trace t = g.make();
      ASSERT_EQ(t.storage_backend(), kind);
      const ListUnits raw = sorted_units(t, false);
      for (const bool absorb : {false, true}) {
        SCOPED_TRACE(std::string(g.name) + (absorb ? " absorbed" : " raw") +
                     (kind == BackendKind::Mem ? " mem" : " blocked"));
        OrderContext ctx(t, with_inference(absorb));
        EXPECT_EQ(rows(ctx.units()), raw.events);
        const ListUnits want = absorb ? sorted_units(t, true) : raw;
        const std::vector<trace::BlockId>& unit = ctx.unit_of_block();
        const EventRows& ev = ctx.event_rows();
        std::vector<trace::BlockId> got(ev.block.size());
        for (std::size_t e = 0; e < got.size(); ++e)
          got[e] = unit[static_cast<std::size_t>(ev.block[e])];
        EXPECT_EQ(got, want.unit_of_event);
        for (std::size_t b = 0; b < unit.size(); ++b)
          absorbed_multi_block |=
              absorb && unit[b] != static_cast<trace::BlockId>(b) &&
              !t.events_of_block(static_cast<trace::BlockId>(b)).empty();
      }
    }
  }
  // Some golden merges a when-block into its serial, so the absorbed
  // keys differ from the block ids somewhere.
  EXPECT_TRUE(absorbed_multi_block);
}

}  // namespace
}  // namespace logstruct::order
