#include "order/initial.hpp"

#include <gtest/gtest.h>

#include <string>

#include "golden_fixtures.hpp"
#include "trace/builder.hpp"
#include "trace/storage/options.hpp"

namespace logstruct::order {
namespace {

/// The scan-derived flags agree with Trace::is_runtime_event, the
/// per-event oracle, for every event of every golden trace on both
/// storage backends.
TEST(RuntimeFlags, MatchTraceOracleOnGoldens) {
  using trace::storage::BackendKind;
  std::int64_t runtime_events = 0;
  for (const golden::Golden& g : golden::kGoldens) {
    for (const BackendKind kind : {BackendKind::Mem, BackendKind::Blocked}) {
      trace::storage::StorageOptions opts;
      opts.kind = kind;
      opts.block_bytes = 4096;
      trace::storage::ScopedStorageOptions scope(opts);
      const trace::Trace t = g.make();
      ASSERT_EQ(t.storage_backend(), kind);
      const std::vector<std::uint8_t> flags =
          runtime_event_flags(event_rows(t), t.chares());
      ASSERT_EQ(flags.size(), static_cast<std::size_t>(t.num_events()));
      std::int64_t mismatches = 0;
      for (trace::EventId e = 0; e < t.num_events(); ++e) {
        const bool want = t.is_runtime_event(e);
        mismatches += (flags[static_cast<std::size_t>(e)] != 0) != want;
        runtime_events += want;
      }
      EXPECT_EQ(mismatches, 0)
          << g.name << (kind == BackendKind::Mem ? " mem" : " blocked");
    }
  }
  // Some golden has runtime chares, so the flags are not trivially zero.
  EXPECT_GT(runtime_events, 0);
}

/// A broadcast from an application chare whose only runtime receiver is
/// a fan-out receiver (not the send's partner): the send is a runtime
/// event through the receiver side of the scan alone.
TEST(RuntimeFlags, FanoutReceiverMakesItsSendRuntime) {
  trace::TraceBuilder tb;
  const trace::ChareId a = tb.add_chare("a");
  const trace::ChareId b = tb.add_chare("b");
  const trace::ChareId mgr = tb.add_chare("mgr", trace::kNone, -1, 0, true);
  const trace::EntryId go = tb.add_entry("go");
  const trace::EntryId rt = tb.add_entry("rt", true);
  const trace::BlockId ba = tb.begin_block(a, 0, go, 0);
  const trace::EventId send = tb.add_send(ba, 10);
  tb.end_block(ba, 15);
  const trace::BlockId bb = tb.begin_block(b, 0, go, 20);
  const trace::EventId to_b = tb.add_recv(bb, 20, send);
  tb.end_block(bb, 25);
  const trace::BlockId bm = tb.begin_block(mgr, 0, rt, 30);
  const trace::EventId to_mgr = tb.add_recv(bm, 30, send);
  tb.end_block(bm, 35);
  const trace::Trace t = tb.finish(1);
  ASSERT_EQ(t.event(send).partner, to_b);

  const std::vector<std::uint8_t> flags =
      runtime_event_flags(event_rows(t), t.chares());
  EXPECT_EQ(flags[static_cast<std::size_t>(send)], 1);
  EXPECT_EQ(flags[static_cast<std::size_t>(to_b)], 0);
  EXPECT_EQ(flags[static_cast<std::size_t>(to_mgr)], 1);
  for (trace::EventId e = 0; e < t.num_events(); ++e)
    EXPECT_EQ(flags[static_cast<std::size_t>(e)] != 0, t.is_runtime_event(e))
        << "event " << e;
}

}  // namespace
}  // namespace logstruct::order
