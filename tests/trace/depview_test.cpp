/// IncomingDeps, the reverse view over the frozen dependency table that
/// the metric kernels and the causality oracle read: on every golden
/// workload and both storage backends, each event's senders are exactly
/// the sends of the table rows that receive into it, in row order
/// (collective rows included), and binding_sender picks the latest send
/// with ties going to the smaller id.

#include "trace/depview.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "../order/golden_fixtures.hpp"
#include "trace/builder.hpp"
#include "trace/storage/options.hpp"

namespace logstruct::trace {
namespace {

using storage::BackendKind;
using storage::ScopedStorageOptions;
using storage::StorageOptions;

/// The senders of every event, read row by row off the table.
std::vector<std::vector<EventId>> senders_by_row(const Trace& t) {
  std::vector<std::vector<EventId>> out(
      static_cast<std::size_t>(t.num_events()));
  const auto sends = t.dep_sends();
  const auto recvs = t.dep_recvs();
  for (std::size_t r = 0; r < sends.size(); ++r)
    out[static_cast<std::size_t>(recvs[r])].push_back(sends[r]);
  return out;
}

/// The latest send, ties to the smaller id; kNone without senders.
EventId latest_send(const Trace& t, const std::vector<EventId>& senders) {
  EventId best = kNone;
  for (EventId s : senders) {
    if (best == kNone || t.event_time(s) > t.event_time(best) ||
        (t.event_time(s) == t.event_time(best) && s < best))
      best = s;
  }
  return best;
}

void expect_matches_table(const Trace& t, const char* what) {
  const IncomingDeps deps(t);
  const std::vector<std::vector<EventId>> want = senders_by_row(t);
  std::int64_t listed = 0;
  for (EventId e = 0; e < t.num_events(); ++e) {
    const auto got = deps.senders(e);
    const std::vector<EventId>& row = want[static_cast<std::size_t>(e)];
    ASSERT_EQ(std::vector<EventId>(got.begin(), got.end()), row)
        << what << " event " << e;
    EXPECT_EQ(deps.binding_sender(t, e), latest_send(t, row))
        << what << " event " << e;
    listed += static_cast<std::int64_t>(got.size());
  }
  EXPECT_EQ(listed, t.num_dependencies()) << what;
}

TEST(IncomingDeps, MatchesDependencyRowsOnGoldensBothBackends) {
  std::int64_t collective_rows = 0;
  for (const BackendKind kind : {BackendKind::Mem, BackendKind::Blocked}) {
    StorageOptions opts;
    opts.kind = kind;
    opts.cache_bytes = 1ull << 20;  // starved: constant eviction
    opts.block_bytes = 64 << 10;
    ScopedStorageOptions scope(opts);
    for (const auto& g : order::golden::kGoldens) {
      SCOPED_TRACE(g.name);
      const Trace t = g.make();
      ASSERT_EQ(t.storage_backend(), kind);
      expect_matches_table(t, g.name);
      for (const DepKind k : t.dep_kinds())
        collective_rows += k == DepKind::Collective;
    }
  }
  // The MPI goldens put collective rows into the comparison.
  EXPECT_GT(collective_rows, 0);
}

TEST(IncomingDeps, BindingSenderBreaksTimeTiesTowardSmallerId) {
  TraceBuilder b;
  const ChareId c0 = b.add_chare("c0");
  const ChareId c1 = b.add_chare("c1");
  const ChareId c2 = b.add_chare("c2");
  const EntryId entry = b.add_entry("e");
  const CollectiveId coll = b.begin_collective();
  const BlockId b0 = b.begin_block(c0, 0, entry, 0);
  const EventId s0 = b.add_collective_send(coll, b0, 5);
  b.end_block(b0, 6);
  const BlockId b1 = b.begin_block(c1, 1, entry, 0);
  const EventId s1 = b.add_collective_send(coll, b1, 5);
  b.end_block(b1, 6);
  const BlockId b2 = b.begin_block(c2, 2, entry, 10);
  const EventId r = b.add_collective_recv(coll, b2, 10);
  b.end_block(b2, 11);
  const Trace t = b.finish(3);

  const IncomingDeps deps(t);
  const auto senders = deps.senders(r);
  EXPECT_EQ(std::vector<EventId>(senders.begin(), senders.end()),
            (std::vector<EventId>{s0, s1}));
  EXPECT_EQ(deps.binding_sender(t, r), std::min(s0, s1));
  EXPECT_EQ(deps.binding_sender(t, s0), kNone);
}

}  // namespace
}  // namespace logstruct::trace
