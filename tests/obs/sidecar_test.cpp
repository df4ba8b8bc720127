#include "util/obs_flags.hpp"

#include <gtest/gtest.h>

#include <string>

#include "apps/jacobi2d.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/obs.hpp"
#include "order/stepping.hpp"
#include "util/thread_pool.hpp"

namespace logstruct::util {
namespace {

TEST(ObsSidecar, JsonParsesAndCarriesStages) {
  obs::PipelineTracer::global().reset();

  apps::Jacobi2DConfig cfg;
  trace::Trace t = apps::run_jacobi2d(cfg);
  order::LogicalStructure ls =
      order::extract_structure(t, order::Options::charm());
  (void)ls;

  std::string doc = obs_sidecar_json("sidecar_test");
  obs::json::Value v;
  std::string err;
  ASSERT_TRUE(obs::json::parse(doc, v, &err)) << err;
  EXPECT_EQ(v.at("program").string, "sidecar_test");
  EXPECT_EQ(v.at("schema").string, "logstruct-obs-sidecar/v5");
  ASSERT_EQ(v.at("obs_compiled").kind, obs::json::Value::Kind::Bool);
  // v2 run-level memory accounting fields always exist (0 off-Linux).
  EXPECT_GE(v.at("peak_rss_kb").as_int(), 0);
  EXPECT_GE(v.at("current_rss_kb").as_int(), 0);
  ASSERT_EQ(v.at("alloc_hook").kind, obs::json::Value::Kind::Bool);
  // v3 recovery accounting: present on every sidecar, zero for the
  // clean pipeline exercised here.
  ASSERT_TRUE(v.has("recovery"));
  EXPECT_EQ(v.at("recovery").at("total").as_int(), 0);
  ASSERT_TRUE(v.at("recovery").at("counters").is_object());
  // v4 flight-recorder reference; v5 dropped v4's sampler block.
  EXPECT_FALSE(v.has("sampler"));
  ASSERT_TRUE(v.has("flight_recorder"));
  ASSERT_EQ(v.at("flight_recorder").at("armed").kind,
            obs::json::Value::Kind::Bool);
  EXPECT_GT(v.at("flight_recorder").at("ring_capacity").as_int(), 0);
  EXPECT_GE(v.at("flight_recorder").at("ring_dropped").as_int(), 0);

#if LOGSTRUCT_OBS
  EXPECT_TRUE(v.at("obs_compiled").boolean);
#if defined(__linux__)
  EXPECT_GT(v.at("peak_rss_kb").as_int(), 0);
#endif
  // One aggregate entry per pipeline stage, with a positive total and
  // the v2 self-time / allocation columns.
  const obs::json::Value& stages = v.at("stages");
  ASSERT_TRUE(stages.is_object());
  for (const char* stage :
       {"order/initial", "order/infer_source_order",
        "order/enforce_leap_property", "order/enforce_chare_paths",
        "order/stepping", "trace/ingest"}) {
    ASSERT_TRUE(stages.has(stage)) << stage;
    EXPECT_EQ(stages.at(stage).at("count").as_int(), 1) << stage;
    EXPECT_GE(stages.at(stage).at("total_ns").as_int(), 0) << stage;
    EXPECT_GE(stages.at(stage).at("self_ns").as_int(), 0) << stage;
    EXPECT_LE(stages.at(stage).at("self_ns").as_int(),
              stages.at(stage).at("total_ns").as_int())
        << stage;
    ASSERT_TRUE(stages.at(stage).has("alloc_bytes")) << stage;
  }
  // The raw span array and metrics registry ride along, and every
  // order/* pass span carries the memory-accounting attributes.
  ASSERT_TRUE(v.at("spans").is_array());
  int order_spans = 0;
  for (const obs::json::Value& s : v.at("spans").array) {
    if (s.at("name").string.rfind("order/", 0) != 0) continue;
    ++order_spans;
    ASSERT_TRUE(s.at("attrs").has("alloc_bytes")) << s.at("name").string;
    ASSERT_TRUE(s.at("attrs").has("rss_peak_kb")) << s.at("name").string;
#if defined(__linux__)
    EXPECT_GT(s.at("attrs").at("rss_peak_kb").as_int(), 0)
        << s.at("name").string;
#endif
  }
  EXPECT_GT(order_spans, 0);
  EXPECT_TRUE(v.at("metrics").at("counters").is_object());
#else
  EXPECT_FALSE(v.at("obs_compiled").boolean);
#endif
}

TEST(ObsSidecar, ChromeTraceFromPipelineRunLoads) {
  obs::PipelineTracer::global().reset();

  apps::Jacobi2DConfig cfg;
  trace::Trace t = apps::run_jacobi2d(cfg);
  order::LogicalStructure ls =
      order::extract_structure(t, order::Options::charm());
  (void)ls;

  std::string doc = obs_chrome_json("sidecar_test");
  obs::json::Value v;
  std::string err;
  ASSERT_TRUE(obs::json::parse(doc, v, &err)) << err;
  EXPECT_EQ(v.at("displayTimeUnit").string, "ms");
  ASSERT_TRUE(v.at("traceEvents").is_array());

#if LOGSTRUCT_OBS
  // A real pipeline run yields complete (ph:X) span events for the
  // order passes; durations must be non-negative microseconds.
  int complete = 0;
  for (const obs::json::Value& e : v.at("traceEvents").array) {
    if (e.at("ph").string != "X") continue;
    ++complete;
    EXPECT_GE(e.at("dur").number, 0.0);
    EXPECT_TRUE(e.has("ts"));
    EXPECT_TRUE(e.has("tid"));
  }
  EXPECT_GT(complete, 0);
#endif
}

TEST(ObsFlags, DefineAndApply) {
  Flags flags;
  define_obs_flags(flags);
  EXPECT_TRUE(flags.defined("profile"));
  EXPECT_TRUE(flags.defined("obs-json"));
  EXPECT_TRUE(flags.defined("log-level"));
  EXPECT_TRUE(flags.defined("threads"));

  std::string lvl = "--log-level=error";
  std::string thr = "--threads=3";
  std::string prog = "prog";
  char* argv[] = {prog.data(), lvl.data(), thr.data()};
  ASSERT_TRUE(flags.parse(3, argv));
  obs::Level before = obs::Logger::global().min_level();
  const int prev_threads = default_parallelism();
  apply_obs_flags(flags);
  EXPECT_EQ(obs::Logger::global().min_level(), obs::Level::Error);
  // --threads reaches every stage that defaults to the process-wide
  // parallelism (trace freezing, Options::threads == 0 pipelines).
  EXPECT_EQ(default_parallelism(), 3);
  set_default_parallelism(prev_threads);
  obs::Logger::global().set_min_level(before);
}

TEST(ObsFlags, ThreadsZeroMeansHardware) {
  Flags flags;
  define_obs_flags(flags);
  std::string thr = "--threads=0";
  std::string prog = "prog";
  char* argv[] = {prog.data(), thr.data()};
  ASSERT_TRUE(flags.parse(2, argv));
  const int prev = default_parallelism();
  apply_obs_flags(flags);
  EXPECT_EQ(default_parallelism(), ThreadPool::hardware_threads());
  set_default_parallelism(prev);
}

}  // namespace
}  // namespace logstruct::util
