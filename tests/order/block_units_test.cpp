#include "order/block_units.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "golden_fixtures.hpp"
#include "order/context.hpp"
#include "trace/builder.hpp"
#include "trace/sdag.hpp"
#include "trace/storage/block_cache.hpp"
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

/// The unit rows as plain lists, indexed by block.
std::vector<std::vector<trace::EventId>> rows(const BlockUnits& u) {
  std::vector<std::vector<trace::EventId>> out;
  for (trace::BlockId r = 0; r < u.num_blocks(); ++r)
    out.emplace_back(u.events(r).begin(), u.events(r).end());
  return out;
}

TEST(BlockUnits, AbsorptionGroupsWhenIntoSerial) {
  AbsorbTrace m = make_absorb_trace();
  OrderContext ctx(m.trace, Options{});
  const BlockUnits& u = ctx.units(/*sdag_absorption=*/true);
  EXPECT_EQ(u.rep[static_cast<std::size_t>(m.b_when)], m.b_serial);
  // The serial's unit holds both events, time-ordered.
  const auto unit = u.events(m.b_serial);
  ASSERT_EQ(unit.size(), 2u);
  EXPECT_EQ(unit[0], m.recv);
  EXPECT_EQ(unit[1], m.send);
  EXPECT_EQ(u.unit_of_event[static_cast<std::size_t>(m.recv)], m.b_serial);
  EXPECT_EQ(u.unit_of_event[static_cast<std::size_t>(m.send)], m.b_serial);
  // The absorbed block's own bucket is empty.
  EXPECT_TRUE(u.events(m.b_when).empty());
}

TEST(BlockUnits, WithoutAbsorptionBlocksStaySeparate) {
  AbsorbTrace m = make_absorb_trace();
  OrderContext ctx(m.trace, Options{});
  const BlockUnits& u = ctx.units(/*sdag_absorption=*/false);
  EXPECT_EQ(u.rep[static_cast<std::size_t>(m.b_when)], m.b_when);
  EXPECT_EQ(u.events(m.b_when).size(), 1u);
  EXPECT_EQ(u.events(m.b_serial).size(), 1u);
  EXPECT_EQ(u.unit_of_event[static_cast<std::size_t>(m.recv)], m.b_when);
}

TEST(BlockUnits, EventlessBlocksHaveEmptyUnits) {
  trace::TraceBuilder tb;
  trace::ChareId c = tb.add_chare("c");
  trace::EntryId e = tb.add_entry("go");
  trace::BlockId b = tb.begin_block(c, 0, e, 0);
  tb.end_block(b, 10);
  trace::Trace t = tb.finish(1);
  OrderContext ctx(t, Options{});
  EXPECT_TRUE(ctx.units(true).events(b).empty());
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

/// Units read off the frozen orders equal the sort-built ones on every
/// golden trace, for both flavors and both storage backends.
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
      for (const bool absorb : {false, true}) {
        SCOPED_TRACE(std::string(g.name) + (absorb ? " absorbed" : " raw") +
                     (kind == BackendKind::Mem ? " mem" : " blocked"));
        OrderContext ctx(t, Options{});
        const BlockUnits& got = ctx.units(absorb);
        const ListUnits want = sorted_units(t, absorb);
        EXPECT_EQ(got.rep, want.rep);
        EXPECT_EQ(rows(got), want.events);
        EXPECT_EQ(got.unit_of_event, want.unit_of_event);
        for (std::size_t b = 0; b < got.rep.size(); ++b)
          absorbed_multi_block |=
              absorb && got.rep[b] != static_cast<trace::BlockId>(b) &&
              !t.events_of_block(static_cast<trace::BlockId>(b)).empty();
      }
    }
  }
  // Some golden merges a when-block into its serial, so the scatter of
  // the by-time order is exercised, not only the one-block copy.
  EXPECT_TRUE(absorbed_multi_block);
}

/// An absorbed unit whose blocks meet at one timestamp, where the serial
/// block's event has the smaller id: before() puts it ahead of the
/// when-block's event, so block-order concatenation would be wrong.
TEST(BlockUnits, AbsorbedUnitBreaksTimeTiesById) {
  using trace::storage::BackendKind;
  for (const BackendKind kind : {BackendKind::Mem, BackendKind::Blocked}) {
    trace::storage::StorageOptions opts;
    opts.kind = kind;
    trace::storage::ScopedStorageOptions scope(opts);
    trace::TraceBuilder tb;
    const trace::ChareId c = tb.add_chare("c");
    const trace::ChareId d = tb.add_chare("d");
    const trace::EntryId e_when = tb.add_entry("recvResult");
    const trace::EntryId e_serial =
        tb.add_entry("serial_1", false, 1, {e_when});
    const trace::EntryId e_plain = tb.add_entry("plain");
    const trace::BlockId b_when = tb.begin_block(c, 0, e_when, 0);
    const trace::BlockId b_serial = tb.begin_block(c, 0, e_serial, 10);
    const trace::EventId send = tb.add_send(b_serial, 10);
    const trace::EventId recv = tb.add_recv(b_when, 10, trace::kNone);
    tb.end_block(b_when, 10);
    tb.end_block(b_serial, 20);
    const trace::BlockId bd = tb.begin_block(d, 1, e_plain, 100);
    tb.add_recv(bd, 100, send);
    tb.end_block(bd, 110);
    const trace::Trace t = tb.finish(2);

    OrderContext ctx(t, Options{});
    const BlockUnits& got = ctx.units(/*sdag_absorption=*/true);
    ASSERT_EQ(got.rep[static_cast<std::size_t>(b_when)], b_serial);
    EXPECT_EQ(rows(got)[static_cast<std::size_t>(b_serial)],
              (std::vector<trace::EventId>{send, recv}));
    EXPECT_EQ(rows(got), sorted_units(t, true).events);
  }
}

/// The absorbed flavor never scans the event column: it maps the blocks
/// that the raw flavor ("initial") or, in a context that runs only the
/// stepping passes, the event rows already hold, so once either exists
/// it makes no block-cache lookup.
TEST(BlockUnits, AbsorbedFlavorRescansNoColumn) {
  trace::storage::StorageOptions opts;
  opts.kind = trace::storage::BackendKind::Blocked;
  opts.block_bytes = 4096;
  trace::storage::ScopedStorageOptions scope(opts);
  const golden::Golden& g = golden::kGoldens[0];
  const trace::Trace t = g.make();
  ASSERT_GT(static_cast<std::size_t>(t.num_events()) * sizeof(trace::Event),
            2u * 4096u);
  auto lookups = [] {
    const auto s = trace::storage::BlockCache::global().stats();
    return s.hits + s.misses;
  };
  for (const bool after_raw : {true, false}) {
    SCOPED_TRACE(after_raw ? "after the raw units" : "after the event rows");
    OrderContext ctx(t, g.opts());
    (void)ctx.by_time();
    (void)ctx.sdag();
    if (after_raw)
      (void)ctx.units(false);
    else
      (void)ctx.event_rows();
    const std::uint64_t before = lookups();
    const BlockUnits& absorbed = ctx.units(true);
    EXPECT_EQ(lookups() - before, 0u);
    EXPECT_EQ(absorbed.unit_of_event.size(),
              static_cast<std::size_t>(t.num_events()));
  }
}

}  // namespace
}  // namespace logstruct::order
