// Shared observability builders (serve_stats.h) and the stdio server's
// stats/metrics verbs: both front-ends answer from the same JSON
// builders, so these tests pin the response schema once.

#include "serve/serve_stats.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "../ml/ml_test_util.h"
#include "common/telemetry/json.h"
#include "common/telemetry/metrics.h"
#include "common/telemetry/trace.h"
#include "ml/random_forest.h"
#include "serve/model_snapshot.h"
#include "serve/snapshot_registry.h"
#include "serve/stdio_server.h"

namespace telco {
namespace {

TEST(ServeStatsTest, CoreJsonCarriesCountersQuantilesAndStages) {
  MetricsRegistry registry;
  registry.GetCounter("serve.executor.requests").Add(10);
  registry.GetCounter("serve.executor.batches").Add(4);
  registry.GetCounter("serve.executor.rejected").Add(1);
  const Histogram latency =
      registry.GetLogHistogram("serve.executor.latency_seconds");
  for (int i = 0; i < 100; ++i) latency.Observe(0.002);
  const Histogram total =
      registry.GetLogHistogram("serve.request.total_seconds");
  for (int i = 0; i < 100; ++i) total.Observe(0.004);

  const std::string json =
      "{" + ServeStatsCoreJson(registry.Snapshot()) + "}";
  Result<JsonValue> doc = ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString() << "\n" << json;
  EXPECT_DOUBLE_EQ(doc->NumberOr("requests", -1), 10.0);
  EXPECT_DOUBLE_EQ(doc->NumberOr("batches", -1), 4.0);
  EXPECT_DOUBLE_EQ(doc->NumberOr("rejected", -1), 1.0);
  // Every point was 2ms, so the log-bucketed p50/p99 agree within the
  // ~6% sub-bucket width.
  EXPECT_NEAR(doc->NumberOr("p50_ms", 0), 2.0, 0.2);
  EXPECT_NEAR(doc->NumberOr("p99_ms", 0), 2.0, 0.2);
  const JsonValue* stages = doc->Find("stages");
  ASSERT_NE(stages, nullptr) << json;
  for (const char* stage :
       {"parse", "queue_wait", "score", "write", "total"}) {
    const JsonValue* entry = stages->Find(stage);
    ASSERT_NE(entry, nullptr) << stage;
    EXPECT_NE(entry->Find("p50_ms"), nullptr) << stage;
    EXPECT_NE(entry->Find("p99_ms"), nullptr) << stage;
    EXPECT_NE(entry->Find("p999_ms"), nullptr) << stage;
  }
  EXPECT_NEAR(stages->Find("total")->NumberOr("p50_ms", 0), 4.0, 0.4);
  // Unrecorded stages report zero quantiles, not missing members.
  EXPECT_DOUBLE_EQ(stages->Find("parse")->NumberOr("p50_ms", -1), 0.0);
}

TEST(ServeStatsTest, RouteStatsJsonIncludesRouteLatency) {
  MetricsRegistry registry;
  const Histogram route_latency =
      registry.GetLogHistogram("serve.route.shadow.latency_seconds");
  for (int i = 0; i < 50; ++i) route_latency.Observe(0.008);

  ModelRouter::RouteStats route;
  route.name = "shadow";
  route.label = "challenger-v2";
  route.snapshot_version = 3;
  route.fingerprint = 0xdeadbeef;
  route.queue_depth = 5;
  route.scored = 123;
  route.rejected = 2;

  Result<JsonValue> doc =
      ParseJson(RouteStatsJson(route, registry.Snapshot()));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->StringOr("model", ""), "shadow");
  EXPECT_EQ(doc->StringOr("label", ""), "challenger-v2");
  EXPECT_DOUBLE_EQ(doc->NumberOr("snapshot", 0), 3.0);
  EXPECT_EQ(doc->StringOr("fingerprint", ""), "deadbeef");
  EXPECT_DOUBLE_EQ(doc->NumberOr("queue_depth", -1), 5.0);
  EXPECT_DOUBLE_EQ(doc->NumberOr("scored", -1), 123.0);
  EXPECT_DOUBLE_EQ(doc->NumberOr("rejected", -1), 2.0);
  const JsonValue* latency = doc->Find("latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_NEAR(latency->NumberOr("p50_ms", 0), 8.0, 0.8);
}

TEST(ServeStatsTest, UnnamedRouteReadsDefaultLatencyMetric) {
  MetricsRegistry registry;
  registry.GetLogHistogram("serve.route.default.latency_seconds")
      .Observe(0.016);
  ModelRouter::RouteStats route;  // name stays ""
  Result<JsonValue> doc =
      ParseJson(RouteStatsJson(route, registry.Snapshot()));
  ASSERT_TRUE(doc.ok());
  EXPECT_NEAR(doc->Find("latency")->NumberOr("p50_ms", 0), 16.0, 1.6);
}

TEST(ServeStatsTest, MetricsResponseJsonWrapsFullSnapshot) {
  MetricsRegistry registry;
  registry.GetCounter("serve.test.requests").Add(42);
  registry.GetLogHistogram("serve.test.latency").Observe(0.001);
  Result<JsonValue> doc =
      ParseJson(MetricsResponseJson(registry.Snapshot()));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->StringOr("cmd", ""), "metrics");
  const JsonValue* metrics = doc->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_TRUE(metrics->is_array());
  ASSERT_EQ(metrics->items.size(), 2u);
  bool saw_counter = false, saw_histogram = false;
  for (const JsonValue& metric : metrics->items) {
    if (metric.StringOr("name", "") == "serve.test.requests") {
      EXPECT_EQ(metric.StringOr("kind", ""), "counter");
      EXPECT_DOUBLE_EQ(metric.NumberOr("value", 0), 42.0);
      saw_counter = true;
    }
    if (metric.StringOr("name", "") == "serve.test.latency") {
      EXPECT_EQ(metric.StringOr("kind", ""), "log_histogram");
      EXPECT_DOUBLE_EQ(metric.NumberOr("count", 0), 1.0);
      saw_histogram = true;
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_histogram);
}

TEST(ServeStatsTest, TraceSamplerSamplesEveryNthWhileRecorderRuns) {
  RequestTraceSampler off(0);
  EXPECT_EQ(off.Sample(), 0u);

  RequestTraceSampler disabled_recorder(1);
  EXPECT_EQ(disabled_recorder.Sample(), 0u);  // recorder not running

  TraceRecorder::Global().Start();
  RequestTraceSampler every_third(3);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 9; ++i) ids.push_back(every_third.Sample());
  TraceRecorder::Global().Stop();
  EXPECT_NE(ids[0], 0u);
  EXPECT_EQ(ids[1], 0u);
  EXPECT_EQ(ids[2], 0u);
  EXPECT_NE(ids[3], 0u);
  EXPECT_NE(ids[6], 0u);
  // Sampled ids are distinct span ids.
  EXPECT_NE(ids[0], ids[3]);
  EXPECT_NE(ids[3], ids[6]);
}

// End-to-end over the stdio front-end: score a few rows, then the stats
// and metrics verbs must answer from the shared builders — stats with
// the per-stage quantile block, metrics with the full registry snapshot.
TEST(ServeStatsTest, StdioServerAnswersStatsAndMetricsVerbs) {
  const Dataset data = ml_testing::LinearlySeparable(40, 4242);
  RandomForestOptions forest_options;
  forest_options.num_trees = 6;
  forest_options.min_samples_split = 20;
  RandomForest forest(forest_options);
  ASSERT_TRUE(forest.Fit(data).ok());
  auto snapshot = ModelSnapshot::FromForest(std::move(forest),
                                            data.feature_names(), "stats");
  ASSERT_TRUE(snapshot.ok());

  SnapshotRegistry registry;
  registry.Publish(*snapshot);

  std::string input;
  for (size_t r = 0; r < data.num_rows(); ++r) {
    ScoreRequest request;
    request.id = r + 1;
    request.imsi = static_cast<int64_t>(r);
    const auto row = data.Row(r);
    request.features.assign(row.begin(), row.end());
    input += FormatScoreRequest(request) + "\n";
  }
  input += "{\"cmd\":\"stats\"}\n{\"cmd\":\"metrics\"}\n{\"cmd\":\"quit\"}\n";

  std::istringstream in(input);
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  StdioScoringServer server(&registry);
  ASSERT_TRUE(server.Run(in, out).ok());

  std::rewind(out);
  std::vector<std::string> lines;
  char buf[1 << 16];
  std::string pending;
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), out)) > 0) {
    pending.append(buf, n);
  }
  std::fclose(out);
  size_t pos = 0;
  while (pos < pending.size()) {
    const size_t end = pending.find('\n', pos);
    ASSERT_NE(end, std::string::npos) << "torn line";
    lines.push_back(pending.substr(pos, end - pos));
    pos = end + 1;
  }
  ASSERT_EQ(lines.size(), data.num_rows() + 2);

  Result<JsonValue> stats = ParseJson(lines[data.num_rows()]);
  ASSERT_TRUE(stats.ok()) << lines[data.num_rows()];
  EXPECT_EQ(stats->StringOr("cmd", ""), "stats");
  EXPECT_EQ(stats->StringOr("model", ""), "stats");
  EXPECT_GE(stats->NumberOr("requests", 0),
            static_cast<double>(data.num_rows()));
  const JsonValue* stages = stats->Find("stages");
  ASSERT_NE(stages, nullptr);
  // The stdio path records parse/queue_wait/score/write/total for every
  // scored request, so each stage's p50 is positive by now. (These are
  // process-global histograms; >= is the strongest exact claim.)
  for (const char* stage :
       {"parse", "queue_wait", "score", "write", "total"}) {
    const JsonValue* entry = stages->Find(stage);
    ASSERT_NE(entry, nullptr) << stage;
    EXPECT_GT(entry->NumberOr("p50_ms", -1), 0.0) << stage;
  }

  Result<JsonValue> metrics = ParseJson(lines[data.num_rows() + 1]);
  ASSERT_TRUE(metrics.ok()) << lines[data.num_rows() + 1];
  EXPECT_EQ(metrics->StringOr("cmd", ""), "metrics");
  const JsonValue* array = metrics->Find("metrics");
  ASSERT_NE(array, nullptr);
  ASSERT_TRUE(array->is_array());
  // The metrics verb is the full registry snapshot: the serve stage
  // histograms and executor counters must all be present, with the stage
  // histograms carrying the log_histogram kind.
  bool saw_total = false;
  for (const JsonValue& metric : array->items) {
    if (metric.StringOr("name", "") == "serve.request.total_seconds") {
      EXPECT_EQ(metric.StringOr("kind", ""), "log_histogram");
      EXPECT_GE(metric.NumberOr("count", 0),
                static_cast<double>(data.num_rows()));
      saw_total = true;
    }
  }
  EXPECT_TRUE(saw_total);
}

}  // namespace
}  // namespace telco
