#include <gtest/gtest.h>

#include "apps/jacobi2d.hpp"
#include "apps/lassen.hpp"
#include "metrics/duration.hpp"
#include "metrics/idle.hpp"
#include "metrics/imbalance.hpp"
#include "order/stepping.hpp"
#include "trace/builder.hpp"
#include "trace/subblock.hpp"

namespace logstruct::metrics {
namespace {

using order::extract_structure;
using order::Options;

// --- sub-blocks -------------------------------------------------------------

TEST(SubBlocks, DivisionPerFigure13) {
  // Block [0, 100] with recv@10 (trigger), send@40, send@70.
  trace::TraceBuilder tb;
  trace::ChareId src = tb.add_chare("src");
  trace::ChareId c = tb.add_chare("c");
  trace::EntryId e = tb.add_entry("go");
  trace::BlockId bs = tb.begin_block(src, 0, e, 0);
  trace::EventId s = tb.add_send(bs, 5);
  tb.end_block(bs, 6);
  trace::BlockId b = tb.begin_block(c, 1, e, 10);
  trace::EventId r = tb.add_recv(b, 10, s);
  trace::EventId s1 = tb.add_send(b, 40);
  trace::EventId s2 = tb.add_send(b, 70);
  tb.end_block(b, 100);
  trace::Trace t = tb.finish(2);

  const auto& dur = t.subblock_frame().duration;
  // recv: [10,10] = 0 plus leftover [70,100] = 30 (recv is the trigger).
  EXPECT_EQ(dur[static_cast<std::size_t>(r)], 30);
  EXPECT_EQ(dur[static_cast<std::size_t>(s1)], 30);  // [10,40]
  EXPECT_EQ(dur[static_cast<std::size_t>(s2)], 30);  // [40,70]
}

TEST(SubBlocks, LeftoverToLastEventWithoutTrigger) {
  trace::TraceBuilder tb;
  trace::ChareId c = tb.add_chare("c");
  trace::EntryId e = tb.add_entry("go");
  trace::BlockId b = tb.begin_block(c, 0, e, 0);
  trace::EventId s1 = tb.add_send(b, 20);
  trace::EventId s2 = tb.add_send(b, 50);
  tb.end_block(b, 80);
  trace::Trace t = tb.finish(1);

  const auto& dur = t.subblock_frame().duration;
  EXPECT_EQ(dur[static_cast<std::size_t>(s1)], 20);       // [0,20]
  EXPECT_EQ(dur[static_cast<std::size_t>(s2)], 30 + 30);  // [20,50]+leftover
}

TEST(SubBlocks, TotalMatchesBlockSpans) {
  apps::Jacobi2DConfig cfg;
  cfg.chares_x = 4;
  cfg.chares_y = 4;
  cfg.num_pes = 4;
  cfg.iterations = 2;
  trace::Trace t = apps::run_jacobi2d(cfg);
  const auto& dur = t.subblock_frame().duration;
  trace::TimeNs total = 0;
  for (auto d : dur) {
    EXPECT_GE(d, 0);
    total += d;
  }
  trace::TimeNs spans = 0;
  for (trace::BlockId b = 0; b < t.num_blocks(); ++b)
    if (!t.events_of_block(b).empty())
      spans += t.block(b).end - t.block(b).begin;
  EXPECT_EQ(total, spans);
}

// --- idle experienced --------------------------------------------------------

TEST(IdleExperienced, FirstBlockAfterIdleGetsIt) {
  trace::TraceBuilder tb;
  trace::ChareId a = tb.add_chare("a");
  trace::ChareId b = tb.add_chare("b");
  trace::EntryId e = tb.add_entry("go");
  trace::BlockId b0 = tb.begin_block(a, 0, e, 0);
  trace::EventId s = tb.add_send(b0, 10);
  tb.end_block(b0, 20);
  tb.add_idle(1, 0, 100);
  trace::BlockId b1 = tb.begin_block(b, 1, e, 100);
  tb.add_recv(b1, 100, s);
  tb.end_block(b1, 120);
  trace::Trace t = tb.finish(2);

  auto ie = idle_experienced(t);
  EXPECT_EQ(ie.per_block[static_cast<std::size_t>(b1)], 100);
  EXPECT_EQ(ie.per_block[static_cast<std::size_t>(b0)], 0);
}

TEST(IdleExperienced, PropagatesWhileDependencyPredatesIdleEnd) {
  // Paper Fig. 11: idle on proc 1, then three blocks; the first two wait
  // on sends from before the idle's end, the third depends on a send from
  // after it.
  trace::TraceBuilder tb;
  trace::ChareId a = tb.add_chare("a");    // proc 0, the sender
  trace::ChareId w1 = tb.add_chare("w1");  // proc 1
  trace::ChareId w2 = tb.add_chare("w2");  // proc 1
  trace::ChareId w3 = tb.add_chare("w3");  // proc 1
  trace::EntryId e = tb.add_entry("go");

  trace::BlockId ba = tb.begin_block(a, 0, e, 0);
  trace::EventId s1 = tb.add_send(ba, 10);
  trace::EventId s2 = tb.add_send(ba, 20);
  tb.end_block(ba, 30);

  tb.add_idle(1, 0, 200);
  trace::BlockId b1 = tb.begin_block(w1, 1, e, 200);
  tb.add_recv(b1, 200, s1);
  tb.end_block(b1, 240);
  trace::BlockId b2 = tb.begin_block(w2, 1, e, 240);
  tb.add_recv(b2, 240, s2);
  tb.end_block(b2, 280);

  // The third block's dependency is sent at t=260 > idle end (200).
  trace::BlockId ba2 = tb.begin_block(a, 0, e, 250);
  trace::EventId s3 = tb.add_send(ba2, 260);
  tb.end_block(ba2, 270);
  trace::BlockId b3 = tb.begin_block(w3, 1, e, 300);
  tb.add_recv(b3, 300, s3);
  tb.end_block(b3, 340);
  trace::Trace t = tb.finish(2);

  auto ie = idle_experienced(t);
  EXPECT_EQ(ie.per_block[static_cast<std::size_t>(b1)], 200);
  EXPECT_EQ(ie.per_block[static_cast<std::size_t>(b2)], 200);
  EXPECT_EQ(ie.per_block[static_cast<std::size_t>(b3)], 0);
}

TEST(IdleExperienced, StopsAtUnknownDependency) {
  trace::TraceBuilder tb;
  trace::ChareId a = tb.add_chare("a");
  trace::ChareId b = tb.add_chare("b");
  trace::EntryId e = tb.add_entry("go");
  tb.add_idle(0, 0, 50);
  trace::BlockId b1 = tb.begin_block(a, 0, e, 50);
  tb.add_recv(b1, 50, trace::kNone);
  tb.end_block(b1, 60);
  trace::BlockId b2 = tb.begin_block(b, 0, e, 60);  // untraced trigger
  tb.add_recv(b2, 60, trace::kNone);
  tb.end_block(b2, 70);
  trace::Trace t = tb.finish(1);

  auto ie = idle_experienced(t);
  EXPECT_EQ(ie.per_block[static_cast<std::size_t>(b1)], 50);  // first block
  EXPECT_EQ(ie.per_block[static_cast<std::size_t>(b2)], 0);   // walk stops
}

TEST(IdleExperienced, JacobiHasIdleAtReductions) {
  apps::Jacobi2DConfig cfg;
  cfg.chares_x = 4;
  cfg.chares_y = 4;
  cfg.num_pes = 8;
  cfg.iterations = 2;
  trace::Trace t = apps::run_jacobi2d(cfg);
  auto ie = idle_experienced(t);
  trace::TimeNs total = 0;
  for (auto v : ie.per_event) total += v;
  EXPECT_GT(total, 0);
}

// --- differential duration -----------------------------------------------------

TEST(DifferentialDuration, ZeroForUniformWork) {
  // Two chares doing identical work at the same step: no differential.
  trace::TraceBuilder tb;
  trace::EntryId e = tb.add_entry("go");
  for (int i = 0; i < 2; ++i) {
    trace::ChareId src = tb.add_chare("s" + std::to_string(i));
    trace::ChareId dst = tb.add_chare("d" + std::to_string(i));
    trace::BlockId bs = tb.begin_block(src, i, e, 0);
    trace::EventId s = tb.add_send(bs, 50);
    tb.end_block(bs, 60);
    trace::BlockId bd = tb.begin_block(dst, i, e, 100);
    tb.add_recv(bd, 100, s);
    tb.end_block(bd, 110);
  }
  trace::Trace t = tb.finish(2);
  auto ls = extract_structure(t, Options::charm());
  auto dd = differential_duration(t, ls);
  EXPECT_EQ(dd.max_value, 0);
}

TEST(DifferentialDuration, FlagsTheSlowChare) {
  apps::Jacobi2DConfig cfg;
  cfg.chares_x = 4;
  cfg.chares_y = 4;
  cfg.num_pes = 4;
  cfg.iterations = 3;
  cfg.compute_noise_ns = 0;  // uniform except the injected outlier
  cfg.slow_chare = 5;
  cfg.slow_iteration = 1;
  cfg.slow_factor = 8.0;
  trace::Trace t = apps::run_jacobi2d(cfg);
  auto ls = extract_structure(t, Options::charm());
  auto dd = differential_duration(t, ls);
  ASSERT_NE(dd.max_event, trace::kNone);
  // The most extreme differential duration lives on the slow chare.
  EXPECT_EQ(t.chare(t.event(dd.max_event).chare).index, 5);
  EXPECT_GT(dd.max_value,
            static_cast<trace::TimeNs>(cfg.compute_ns * 5));
}

TEST(DifferentialDuration, NonNegative) {
  apps::LassenConfig cfg;
  cfg.iterations = 4;
  trace::Trace t = apps::run_lassen_charm(cfg);
  auto ls = extract_structure(t, Options::charm());
  auto dd = differential_duration(t, ls);
  for (auto v : dd.per_event) EXPECT_GE(v, 0);
}

// --- imbalance -------------------------------------------------------------------

TEST(Imbalance, ZeroOnSingleProc) {
  apps::Jacobi2DConfig cfg;
  cfg.chares_x = 2;
  cfg.chares_y = 2;
  cfg.num_pes = 1;
  cfg.iterations = 2;
  trace::Trace t = apps::run_jacobi2d(cfg);
  auto ls = extract_structure(t, Options::charm());
  auto imb = imbalance(t, ls);
  for (auto v : imb.per_phase) EXPECT_EQ(v, 0);
}

TEST(Imbalance, SlowChareRaisesItsIterationsImbalance) {
  apps::Jacobi2DConfig base;
  base.chares_x = 4;
  base.chares_y = 4;
  base.num_pes = 8;
  base.iterations = 3;
  base.compute_noise_ns = 0;
  apps::Jacobi2DConfig slow = base;
  slow.slow_chare = 5;
  slow.slow_iteration = 1;
  slow.slow_factor = 8.0;

  auto imb_of = [](const apps::Jacobi2DConfig& cfg) {
    trace::Trace t = apps::run_jacobi2d(cfg);
    auto ls = extract_structure(t, Options::charm());
    auto imb = imbalance(t, ls);
    trace::TimeNs max_v = 0;
    for (auto v : imb.per_phase) max_v = std::max(max_v, v);
    return max_v;
  };
  EXPECT_GT(imb_of(slow), imb_of(base) * 3);
}

TEST(Imbalance, PerEventMatchesPhaseProcSpread) {
  apps::Jacobi2DConfig cfg;
  cfg.chares_x = 4;
  cfg.chares_y = 4;
  cfg.num_pes = 4;
  cfg.iterations = 2;
  trace::Trace t = apps::run_jacobi2d(cfg);
  auto ls = extract_structure(t, Options::charm());
  auto imb = imbalance(t, ls);
  for (trace::EventId e = 0; e < t.num_events(); ++e) {
    auto ph = static_cast<std::size_t>(
        ls.phases.phase_of_event[static_cast<std::size_t>(e)]);
    auto pr = static_cast<std::size_t>(t.event(e).proc);
    EXPECT_EQ(imb.per_event[static_cast<std::size_t>(e)],
              std::max<trace::TimeNs>(imb.per_phase_proc[ph][pr], 0));
  }
}

}  // namespace
}  // namespace logstruct::metrics
