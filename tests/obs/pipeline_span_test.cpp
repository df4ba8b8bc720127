#include "obs/pipeline.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "apps/jacobi2d.hpp"
#include "obs/obs.hpp"
#include "order/stepping.hpp"

namespace logstruct::obs {
namespace {

TEST(PipelineTracer, SpansNestAndBalance) {
  PipelineTracer tracer;
  SpanId outer = tracer.begin("a");
  SpanId inner = tracer.begin("b");
  tracer.attr(inner, "k", 7);
  tracer.end(inner);
  SpanId second = tracer.begin("c");
  tracer.end(second);
  tracer.end(outer);

  auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "a");
  EXPECT_EQ(spans[0].parent, kNoSpan);
  EXPECT_EQ(spans[1].parent, outer);
  EXPECT_EQ(spans[2].parent, outer);
  for (const Span& s : spans) {
    EXPECT_FALSE(s.open);
    EXPECT_GE(s.end_ns, s.begin_ns);
  }
  ASSERT_EQ(spans[1].attrs.size(), 1u);
  EXPECT_EQ(spans[1].attrs[0].key, "k");
  EXPECT_EQ(spans[1].attrs[0].value, 7);
}

TEST(PipelineTracer, CapacityDropsAreCounted) {
  PipelineTracer tracer;
  tracer.set_capacity(2);
  tracer.end(tracer.begin("one"));
  tracer.end(tracer.begin("two"));
  SpanId dropped = tracer.begin("three");
  EXPECT_EQ(dropped, kNoSpan);
  tracer.end(dropped);  // must be harmless
  EXPECT_EQ(tracer.snapshot().size(), 2u);
  EXPECT_EQ(tracer.dropped(), 1u);
}

TEST(PipelineTracer, DisabledRecordsNothing) {
  PipelineTracer tracer;
  tracer.set_enabled(false);
  tracer.end(tracer.begin("x"));
  EXPECT_TRUE(tracer.snapshot().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
}

#if LOGSTRUCT_OBS

// One extraction pass must emit exactly one balanced span per pipeline
// stage, nested under order/find_phases, with child durations covered by
// the parent window. This is the contract the --profile table and the
// JSON sidecar are built on.
TEST(PipelineSpans, EveryOrderStageEmitsOneBalancedSpan) {
  PipelineTracer& tracer = PipelineTracer::global();
  tracer.reset();

  apps::Jacobi2DConfig cfg;  // quickstart-sized input
  trace::Trace t = apps::run_jacobi2d(cfg);
  order::LogicalStructure ls =
      order::extract_structure(t, order::Options::charm());
  EXPECT_GT(ls.num_phases(), 0);

  auto spans = tracer.snapshot();
  std::map<std::string, int> count;
  for (const Span& s : spans) {
    EXPECT_FALSE(s.open) << s.name;
    EXPECT_GE(s.end_ns, s.begin_ns) << s.name;
    ++count[s.name];
  }

  const std::vector<std::string> stages = {
      "sim/charm/run",
      "trace/ingest",
      "order/extract_structure",
      "order/find_phases",
      "order/initial",
      "order/dependency_merge",
      "order/repair",
      "order/neighbor_serial",
      "order/infer_source_order",
      "order/enforce_leap_property",
      "order/enforce_chare_paths",
      "order/finalize",
      "order/reorder",
      "order/stepping",
  };
  for (const std::string& stage : stages) {
    EXPECT_EQ(count[stage], 1) << stage;
  }

  // The phase stages nest under order/find_phases and stay inside its
  // window; their summed duration cannot exceed the parent's. (A span's
  // id is its index in the snapshot.)
  SpanId parent_id = kNoSpan;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "order/find_phases")
      parent_id = static_cast<SpanId>(i);
  }
  ASSERT_NE(parent_id, kNoSpan);
  const Span& parent = spans[static_cast<std::size_t>(parent_id)];
  std::int64_t child_sum = 0;
  for (const Span& s : spans) {
    if (s.parent != parent_id) continue;
    EXPECT_GE(s.begin_ns, parent.begin_ns) << s.name;
    EXPECT_LE(s.end_ns, parent.end_ns) << s.name;
    child_sum += s.end_ns - s.begin_ns;
  }
  EXPECT_LE(child_sum, parent.end_ns - parent.begin_ns);

  // Every span's duration also landed in the registry histogram.
  EXPECT_GE(
      Registry::global().histogram("order/find_phases").count(), 1);
}

#else  // LOGSTRUCT_OBS == 0

TEST(PipelineSpans, CompiledOut) {
  GTEST_SKIP() << "built with LOGSTRUCT_OBS=0: no instrumented call sites";
}

#endif  // LOGSTRUCT_OBS

}  // namespace
}  // namespace logstruct::obs
