#include "order/stepping.hpp"

#include <gtest/gtest.h>

#include "golden_fixtures.hpp"
#include "order_fixtures.hpp"
#include "random_trace.hpp"
#include "trace/builder.hpp"
#include "trace/storage/options.hpp"

namespace logstruct::order {
namespace {

TEST(Stepping, RingStructureInvariants) {
  auto ring = testing::make_ring_trace(6);
  LogicalStructure ls = extract_structure(ring.trace, Options::charm());
  testing::expect_structure_invariants(ring.trace, ls);
}

/// Seed 1 under ±2000 ns of per-PE skew is the smallest fuzz case whose
/// unit order contradicts its messages: Kahn stalls, and the conflict
/// rule must settle the phase (a relaxation fixpoint would never end)
/// into a valid, causally consistent structure.
TEST(Stepping, SkewCycleTerminatesValid) {
  trace::Trace t = testing::skewed(testing::random_trace(1), 2000, 1);
  Options opts = Options::charm();
  opts.check_causality = true;
  LogicalStructure ls = extract_structure(t, opts);
  EXPECT_GT(ls.order_conflicts, 0);
  std::vector<std::string> problems = validate_structure(t, ls);
  EXPECT_TRUE(problems.empty()) << problems.front();
}

/// The conflict path, pinned bit for bit. The goldens never stall Kahn,
/// so these skewed fuzz traces (±2000 ns; each stalls under at least one
/// preset) carry their recorded structure hash and conflict count under
/// all five presets, the mpi ones taking the w clock's MPI branch: at
/// threads 1 and 4, on the mem backend and on the blocked one with a
/// 4 MiB cache.
TEST(Stepping, ConflictPathPinnedAcrossPresetsAndBackends) {
  struct Expected {
    std::int32_t conflicts;
    std::uint64_t hash;
  };
  struct Case {
    std::uint64_t seed;
    Expected preset[5];
  };
  // Presets: charm, charm_no_inference, charm_no_reorder, mpi,
  // mpi_baseline13.
  static constexpr Case kCases[] = {
      {1,
       {{6, 0x871ae2e5214e6a7aull},
        {5, 0xc1fa5677bd15fa7dull},
        {0, 0xa6a3b004adfa4267ull},
        {6, 0x6f8e6e7581446dddull},
        {0, 0x4f74983f161e2b62ull}}},
      {3,
       {{0, 0x68e424338fb9a466ull},
        {0, 0x364c61fb12407dfaull},
        {0, 0x08824485da01f359ull},
        {4, 0x98788cc673451770ull},
        {0, 0xca296b86afe95d08ull}}},
      {7,
       {{1, 0x77951aad71583b4dull},
        {1, 0x91d821b9905d0472ull},
        {0, 0x4d1c3f717cbcde59ull},
        {2, 0xfcc267985da022bbull},
        {0, 0x7d5acfe31748096bull}}},
      {20,
       {{1, 0xba554af8315c68f8ull},
        {1, 0xc150779762d95f39ull},
        {0, 0xc168b2394ffe17e3ull},
        {1, 0xd4fd03b5c989b7baull},
        {0, 0x0f9bdfd9f806b94aull}}},
  };
  Options (*const presets[5])() = {
      Options::charm, Options::charm_no_inference, Options::charm_no_reorder,
      Options::mpi, Options::mpi_baseline13};
  using trace::storage::BackendKind;
  for (const BackendKind kind : {BackendKind::Mem, BackendKind::Blocked}) {
    trace::storage::StorageOptions storage;
    storage.kind = kind;
    storage.cache_bytes = 4 << 20;
    trace::storage::ScopedStorageOptions scope(storage);
    for (const Case& c : kCases) {
      const trace::Trace t =
          testing::skewed(testing::random_trace(c.seed), 2000, c.seed);
      ASSERT_EQ(t.storage_backend(), kind);
      for (int p = 0; p < 5; ++p) {
        for (const int threads : {1, 4}) {
          Options opts = presets[p]();
          opts.threads = threads;
          const LogicalStructure ls = extract_structure(t, opts);
          SCOPED_TRACE(::testing::Message()
                       << "seed " << c.seed << " preset " << p << " threads "
                       << threads << " blocked " << (kind != BackendKind::Mem));
          EXPECT_EQ(ls.order_conflicts, c.preset[p].conflicts);
          EXPECT_EQ(golden::structure_hash(t, ls), c.preset[p].hash);
        }
      }
    }
  }
}

TEST(Stepping, SimpleChainSteps) {
  // a sends to b; b sends to c. Steps: send=0, recv=1, send=2, recv=3.
  trace::TraceBuilder tb;
  trace::ChareId a = tb.add_chare("a");
  trace::ChareId b = tb.add_chare("b");
  trace::ChareId c = tb.add_chare("c");
  trace::EntryId e = tb.add_entry("go");
  trace::BlockId ba = tb.begin_block(a, 0, e, 0);
  trace::EventId s1 = tb.add_send(ba, 10);
  tb.end_block(ba, 20);
  trace::BlockId bb = tb.begin_block(b, 1, e, 100);
  trace::EventId r1 = tb.add_recv(bb, 100, s1);
  trace::EventId s2 = tb.add_send(bb, 110);
  tb.end_block(bb, 120);
  trace::BlockId bc = tb.begin_block(c, 0, e, 200);
  trace::EventId r2 = tb.add_recv(bc, 200, s2);
  tb.end_block(bc, 210);
  trace::Trace t = tb.finish(2);

  LogicalStructure ls = extract_structure(t, Options::charm());
  EXPECT_EQ(ls.global_step[static_cast<std::size_t>(s1)], 0);
  EXPECT_EQ(ls.global_step[static_cast<std::size_t>(r1)], 1);
  EXPECT_EQ(ls.global_step[static_cast<std::size_t>(s2)], 2);
  EXPECT_EQ(ls.global_step[static_cast<std::size_t>(r2)], 3);
  EXPECT_EQ(ls.max_step, 3);
}

TEST(Stepping, ParallelSendsShareStepZero) {
  // Two disjoint pairs exchanging at the same time: both sends at step 0.
  trace::TraceBuilder tb;
  trace::EntryId e = tb.add_entry("go");
  std::vector<trace::EventId> sends;
  for (int i = 0; i < 2; ++i) {
    trace::ChareId src = tb.add_chare("src" + std::to_string(i));
    trace::ChareId dst = tb.add_chare("dst" + std::to_string(i));
    trace::BlockId bs = tb.begin_block(src, i, e, 0);
    trace::EventId s = tb.add_send(bs, 10);
    tb.end_block(bs, 20);
    trace::BlockId bd = tb.begin_block(dst, i, e, 100);
    tb.add_recv(bd, 100 + i, s);
    tb.end_block(bd, 120 + i);
    sends.push_back(s);
  }
  trace::Trace t = tb.finish(2);
  LogicalStructure ls = extract_structure(t, Options::charm());
  // The pairs have no dependency between them; whether they land in one
  // or two phases, each send is phase-initial.
  EXPECT_EQ(ls.local_step[static_cast<std::size_t>(sends[0])], 0);
  EXPECT_EQ(ls.local_step[static_cast<std::size_t>(sends[1])], 0);
}

TEST(Stepping, PhaseOffsetsSequencePhases) {
  // Two rounds between the same chares (source-order inferred sequence):
  // global steps of round 2 start after round 1 ends.
  trace::TraceBuilder tb;
  trace::ChareId a = tb.add_chare("a");
  trace::ChareId b = tb.add_chare("b");
  trace::EntryId e = tb.add_entry("go");
  trace::BlockId ba1 = tb.begin_block(a, 0, e, 0);
  trace::EventId s1 = tb.add_send(ba1, 10);
  tb.end_block(ba1, 20);
  trace::BlockId bb1 = tb.begin_block(b, 1, e, 100);
  trace::EventId r1 = tb.add_recv(bb1, 100, s1);
  tb.end_block(bb1, 110);
  trace::BlockId ba2 = tb.begin_block(a, 0, e, 500);
  trace::EventId s2 = tb.add_send(ba2, 510);
  tb.end_block(ba2, 520);
  trace::BlockId bb2 = tb.begin_block(b, 1, e, 600);
  trace::EventId r2 = tb.add_recv(bb2, 600, s2);
  tb.end_block(bb2, 610);
  trace::Trace t = tb.finish(2);

  LogicalStructure ls = extract_structure(t, Options::charm());
  EXPECT_EQ(ls.global_step[static_cast<std::size_t>(s1)], 0);
  EXPECT_EQ(ls.global_step[static_cast<std::size_t>(r1)], 1);
  EXPECT_EQ(ls.global_step[static_cast<std::size_t>(s2)], 2);
  EXPECT_EQ(ls.global_step[static_cast<std::size_t>(r2)], 3);
}

// --- the w clock / reordering (paper Fig. 7) ------------------------------

/// Gray chare receives from blue (chare id low) and white (chare id high)
/// at the same w; the physical arrival order is white first. Reordering
/// must place blue's sink before white's (tie broken by source chare id).
TEST(Stepping, TieBrokenBySourceChareId) {
  trace::TraceBuilder tb;
  trace::ChareId blue = tb.add_chare("blue");    // id 0
  trace::ChareId white = tb.add_chare("white");  // id 1
  trace::ChareId gray = tb.add_chare("gray");    // id 2
  trace::EntryId e = tb.add_entry("go");

  trace::BlockId b_blue = tb.begin_block(blue, 0, e, 0);
  trace::EventId s_blue = tb.add_send(b_blue, 10);
  tb.end_block(b_blue, 20);
  trace::BlockId b_white = tb.begin_block(white, 1, e, 0);
  trace::EventId s_white = tb.add_send(b_white, 10);
  tb.end_block(b_white, 20);

  // Physical arrival: white's message first.
  trace::BlockId g1 = tb.begin_block(gray, 2, e, 100);
  trace::EventId r_white = tb.add_recv(g1, 100, s_white);
  tb.end_block(g1, 110);
  trace::BlockId g2 = tb.begin_block(gray, 2, e, 120);
  trace::EventId r_blue = tb.add_recv(g2, 120, s_blue);
  tb.end_block(g2, 130);
  trace::Trace t = tb.finish(3);

  LogicalStructure reordered = extract_structure(t, Options::charm());
  // Both receives have w = 1; source chare ids order blue before white.
  EXPECT_LT(reordered.pos_in_chare[static_cast<std::size_t>(r_blue)],
            reordered.pos_in_chare[static_cast<std::size_t>(r_white)]);

  LogicalStructure physical = extract_structure(t, Options::charm_no_reorder());
  EXPECT_LT(physical.pos_in_chare[static_cast<std::size_t>(r_white)],
            physical.pos_in_chare[static_cast<std::size_t>(r_blue)]);
}

/// Reordering undoes scheduling noise: two waves of messages to one chare
/// arrive interleaved; replay order groups them by wave.
TEST(Stepping, ReorderGroupsByWave) {
  trace::TraceBuilder tb;
  trace::ChareId src = tb.add_chare("src");
  trace::ChareId hub = tb.add_chare("hub");
  trace::EntryId e = tb.add_entry("go");

  // src sends m1 then (after a long pause within the same serial block
  // boundary rules) m2 from a second block; m2 arrives BEFORE m1.
  trace::BlockId b1 = tb.begin_block(src, 0, e, 0);
  trace::EventId s1 = tb.add_send(b1, 10);
  trace::EventId s2 = tb.add_send(b1, 20);
  tb.end_block(b1, 30);
  trace::BlockId h1 = tb.begin_block(hub, 1, e, 100);
  trace::EventId r2 = tb.add_recv(h1, 100, s2);  // second send first!
  tb.end_block(h1, 110);
  trace::BlockId h2 = tb.begin_block(hub, 1, e, 120);
  trace::EventId r1 = tb.add_recv(h2, 120, s1);
  tb.end_block(h2, 130);
  trace::Trace t = tb.finish(2);

  LogicalStructure ls = extract_structure(t, Options::charm());
  // w(s1)=0 < w(s2)=1, so r1 (w=1) replays before r2 (w=2).
  EXPECT_LT(ls.w[static_cast<std::size_t>(s1)],
            ls.w[static_cast<std::size_t>(s2)]);
  EXPECT_LT(ls.pos_in_chare[static_cast<std::size_t>(r1)],
            ls.pos_in_chare[static_cast<std::size_t>(r2)]);
  testing::expect_structure_invariants(t, ls);
}

// --- MPI-mode reordering (paper Fig. 9) ------------------------------------

/// The Figure 9 scenario: a process has receives with w {3, 6} before a
/// send and a receive with w {4} after it in physical time. The send gets
/// w = 7 and the late receive (4) reorders to before the send; receives
/// physically before the send stay before it.
TEST(Stepping, MpiSendPinnedAfterPriorReceives) {
  trace::TraceBuilder tb;
  trace::EntryId es = tb.add_entry("MPI_Send");
  trace::EntryId er = tb.add_entry("MPI_Recv");

  // Build three source ranks that send chains of various depths to rank 3,
  // so the receives on rank 3 carry distinct w values.
  trace::ChareId r0 = tb.add_chare("rank0");
  trace::ChareId r1 = tb.add_chare("rank1");
  trace::ChareId r3 = tb.add_chare("rank3");

  // Chains on rank0: s->s->s->s gives w values 0,1,2,3 for its sends.
  trace::BlockId b;
  std::vector<trace::EventId> r0_sends;
  for (int i = 0; i < 4; ++i) {
    b = tb.begin_block(r0, 0, es, i * 10);
    r0_sends.push_back(tb.add_send(b, i * 10));
    tb.end_block(b, i * 10 + 5);
  }
  std::vector<trace::EventId> r1_sends;
  for (int i = 0; i < 2; ++i) {
    b = tb.begin_block(r1, 1, es, i * 10);
    r1_sends.push_back(tb.add_send(b, i * 10));
    tb.end_block(b, i * 10 + 5);
  }

  // rank3 physical order: recv(r0#3), recv(r1#1), send(to r1), recv(r1#0).
  b = tb.begin_block(r3, 3, er, 100);
  trace::EventId ra = tb.add_recv(b, 100, r0_sends[3]);
  tb.end_block(b, 105);
  b = tb.begin_block(r3, 3, er, 110);
  trace::EventId rb = tb.add_recv(b, 110, r1_sends[1]);
  tb.end_block(b, 115);
  b = tb.begin_block(r3, 3, es, 120);
  trace::EventId sc = tb.add_send(b, 120);
  tb.end_block(b, 125);
  b = tb.begin_block(r3, 3, er, 130);
  trace::EventId rd = tb.add_recv(b, 130, r1_sends[0]);
  tb.end_block(b, 135);
  // Match sc somewhere so it is not dangling.
  b = tb.begin_block(r1, 1, er, 200);
  tb.add_recv(b, 200, sc);
  tb.end_block(b, 205);

  // Consume r0's dangling sends on rank1 so every send is matched.
  for (int i = 0; i < 3; ++i) {
    b = tb.begin_block(r1, 1, er, 300 + i * 10);
    tb.add_recv(b, 300 + i * 10, r0_sends[static_cast<std::size_t>(i)]);
    tb.end_block(b, 300 + i * 10 + 5);
  }
  trace::Trace t = tb.finish(4);

  LogicalStructure ls = extract_structure(t, Options::mpi());
  // The send is pinned after every receive that physically preceded it —
  // under the relaxed receive-order edges this holds structurally: the
  // send's phase succeeds the receives' phases, so its global step is
  // strictly larger.
  EXPECT_GT(ls.global_step[static_cast<std::size_t>(sc)],
            ls.global_step[static_cast<std::size_t>(ra)]);
  EXPECT_GT(ls.global_step[static_cast<std::size_t>(sc)],
            ls.global_step[static_cast<std::size_t>(rb)]);
  // The physically-later receive rd has a small w and reorders to before
  // the send; ra and rb stay before the send.
  EXPECT_LT(ls.pos_in_chare[static_cast<std::size_t>(rd)],
            ls.pos_in_chare[static_cast<std::size_t>(sc)]);
  EXPECT_LT(ls.pos_in_chare[static_cast<std::size_t>(ra)],
            ls.pos_in_chare[static_cast<std::size_t>(sc)]);
  EXPECT_LT(ls.pos_in_chare[static_cast<std::size_t>(rb)],
            ls.pos_in_chare[static_cast<std::size_t>(sc)]);
}

TEST(Stepping, NoReorderKeepsPhysicalOrderPerChare) {
  auto ring = testing::make_ring_trace(5, /*stagger=*/77);
  LogicalStructure ls =
      extract_structure(ring.trace, Options::charm_no_reorder());
  testing::expect_structure_invariants(ring.trace, ls);
  for (const auto& seq : ls.chare_sequence) {
    for (std::size_t i = 1; i < seq.size(); ++i) {
      EXPECT_LE(ring.trace.event(seq[i - 1]).time,
                ring.trace.event(seq[i]).time);
    }
  }
}

TEST(Stepping, UntracedRecvIsPhaseInitial) {
  trace::TraceBuilder tb;
  trace::ChareId a = tb.add_chare("a");
  trace::EntryId e = tb.add_entry("go");
  trace::BlockId b = tb.begin_block(a, 0, e, 0);
  trace::EventId r = tb.add_recv(b, 0, trace::kNone);
  trace::EventId s = tb.add_send(b, 10);
  tb.end_block(b, 20);
  trace::ChareId c = tb.add_chare("c");
  trace::BlockId bc = tb.begin_block(c, 1, e, 100);
  tb.add_recv(bc, 100, s);
  tb.end_block(bc, 110);
  trace::Trace t = tb.finish(2);

  LogicalStructure ls = extract_structure(t, Options::charm());
  EXPECT_EQ(ls.local_step[static_cast<std::size_t>(r)], 0);
  EXPECT_EQ(ls.w[static_cast<std::size_t>(r)], 0);
}

}  // namespace
}  // namespace logstruct::order
