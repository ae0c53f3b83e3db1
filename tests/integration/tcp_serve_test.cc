// TCP front-end wire tests: scores served over a real socket must be
// bit-identical to the offline batch path (ModelSnapshot::ScoreBatch →
// PredictProbaBatch), including across concurrent named-model hot swaps;
// the protocol edges (oversized frames, garbage lines, overload, EOF
// half-close, quit) must each resolve to the documented behaviour.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../ml/ml_test_util.h"
#include "common/telemetry/json.h"
#include "common/telemetry/metrics.h"
#include "common/telemetry/flight_recorder.h"
#include "common/telemetry/trace.h"
#include "ml/serialize.h"
#include "serve/metrics_endpoint.h"
#include "serve/model_router.h"
#include "serve/tcp_server.h"

namespace telco {
namespace {

uint64_t CounterValue(const char* name) {
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  const MetricValue* value = snapshot.Find(name);
  return value == nullptr ? 0 : value->counter;
}

std::shared_ptr<const ModelSnapshot> MakeSnapshot(uint64_t seed,
                                                  const std::string& label) {
  const Dataset data = ml_testing::LinearlySeparable(400, seed);
  RandomForestOptions options;
  options.num_trees = 8;
  options.min_samples_split = 20;
  RandomForest forest(options);
  EXPECT_TRUE(forest.Fit(data).ok());
  auto snapshot =
      ModelSnapshot::FromForest(std::move(forest), data.feature_names(), label);
  EXPECT_TRUE(snapshot.ok());
  return *snapshot;
}

// Minimal blocking NDJSON client against 127.0.0.1:port.
class TcpClient {
 public:
  ~TcpClient() { Close(); }

  void Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd_, 0) << std::strerror(errno);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0)
        << std::strerror(errno);
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  void SendAll(std::string_view bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      ASSERT_GT(n, 0) << std::strerror(errno);
      off += static_cast<size_t>(n);
    }
  }

  // One response line without the trailing '\n'; false on clean EOF.
  bool RecvLine(std::string* line) {
    while (true) {
      const size_t pos = buffer_.find('\n');
      if (pos != std::string::npos) {
        line->assign(buffer_, 0, pos);
        buffer_.erase(0, pos + 1);
        return true;
      }
      char chunk[4096];
      ssize_t n;
      do {
        n = ::recv(fd_, chunk, sizeof(chunk), 0);
      } while (n < 0 && errno == EINTR);
      EXPECT_GE(n, 0) << std::strerror(errno);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  bool AtEof() {
    if (!buffer_.empty()) return false;
    char chunk[256];
    ssize_t n;
    do {
      n = ::recv(fd_, chunk, sizeof(chunk), 0);
    } while (n < 0 && errno == EINTR);
    if (n > 0) buffer_.append(chunk, static_cast<size_t>(n));
    return n == 0;
  }

  void HalfClose() { ::shutdown(fd_, SHUT_WR); }

  // Bound blocking recvs so a server that wrongly keeps a connection
  // open fails the test instead of hanging it.
  void SetRecvTimeout(int seconds) {
    timeval tv{};
    tv.tv_sec = seconds;
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

std::string ScoreFrame(uint64_t id, int64_t imsi, const std::string& model,
                       std::span<const double> row) {
  ScoreRequest request;
  request.id = id;
  request.imsi = imsi;
  request.model = model;
  request.features.assign(row.begin(), row.end());
  return FormatScoreRequest(request) + "\n";
}

// Headline acceptance: every row scored over TCP bit-matches the
// offline batch path, responses come back in request order, and the
// response's own codec round-trips the double exactly.
TEST(TcpServeTest, ScoresBitIdenticalToOfflineBatch) {
  auto snapshot = MakeSnapshot(7001, "tcp-v1");
  const Dataset data = ml_testing::LinearlySeparable(300, 7002);
  const std::vector<double> expected = snapshot->ScoreBatch(data, nullptr);

  ModelRouter router;
  router.Publish("", snapshot);
  TcpScoringServer server(&router);
  ASSERT_TRUE(server.Start().ok());

  TcpClient client;
  client.Connect(server.port());
  std::string stream;
  for (size_t r = 0; r < data.num_rows(); ++r) {
    stream += ScoreFrame(r + 1, static_cast<int64_t>(r), "", data.Row(r));
  }
  client.SendAll(stream);

  std::string line;
  for (size_t r = 0; r < data.num_rows(); ++r) {
    ASSERT_TRUE(client.RecvLine(&line)) << "EOF before response " << r;
    auto doc = ParseJson(line);
    ASSERT_TRUE(doc.ok()) << line;
    // In-order delivery per connection.
    EXPECT_EQ(doc->NumberOr("id", 0), static_cast<double>(r + 1)) << line;
    EXPECT_EQ(doc->NumberOr("snapshot", 0), 1.0) << line;
    const JsonValue* score = doc->Find("score");
    ASSERT_NE(score, nullptr) << line;
    EXPECT_EQ(score->number, expected[r]) << "row " << r << ": " << line;
  }
  server.Shutdown();
}

// Two named routes hot-swapped by concurrent publishers while clients
// stream against them: every response must bit-match the exact model its
// snapshot version names, per route.
TEST(TcpServeTest, ConcurrentNamedSwapStormKeepsBitParity) {
  // Per route, version 1 = X and publish k >= 2 alternates Y/X, so the
  // version's parity names the model (same trick as serve_parity_test).
  auto alpha_x = MakeSnapshot(7101, "alpha-x");
  auto alpha_y = MakeSnapshot(7102, "alpha-y");
  auto beta_x = MakeSnapshot(7103, "beta-x");
  auto beta_y = MakeSnapshot(7104, "beta-y");
  const Dataset data = ml_testing::LinearlySeparable(250, 7105);
  const std::vector<double> expect_ax = alpha_x->ScoreBatch(data, nullptr);
  const std::vector<double> expect_ay = alpha_y->ScoreBatch(data, nullptr);
  const std::vector<double> expect_bx = beta_x->ScoreBatch(data, nullptr);
  const std::vector<double> expect_by = beta_y->ScoreBatch(data, nullptr);

  ModelRouterOptions router_options;
  router_options.executor.max_batch_size = 17;
  ModelRouter router(router_options);
  router.Publish("alpha", alpha_x);
  router.Publish("beta", beta_x);
  TcpScoringServer server(&router);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> done{false};
  std::thread alpha_swapper([&] {
    for (int k = 2; !done.load(); ++k) {
      router.Publish("alpha", k % 2 == 0 ? alpha_y : alpha_x);
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });
  std::thread beta_swapper([&] {
    for (int k = 2; !done.load(); ++k) {
      router.Publish("beta", k % 2 == 0 ? beta_y : beta_x);
      std::this_thread::sleep_for(std::chrono::microseconds(400));
    }
  });

  struct RouteCase {
    const char* name;
    const std::vector<double>* expect_x;
    const std::vector<double>* expect_y;
  };
  const RouteCase cases[] = {
      {"alpha", &expect_ax, &expect_ay},
      {"beta", &expect_bx, &expect_by},
  };
  constexpr size_t kRounds = 3;
  std::atomic<size_t> swapped_responses{0};
  std::vector<std::thread> clients;
  for (const RouteCase& c : cases) {
    clients.emplace_back([&, c] {
      TcpClient client;
      client.Connect(server.port());
      std::string stream;
      for (size_t round = 0; round < kRounds; ++round) {
        for (size_t r = 0; r < data.num_rows(); ++r) {
          stream +=
              ScoreFrame(r + 1, static_cast<int64_t>(r), c.name, data.Row(r));
        }
      }
      client.SendAll(stream);
      client.HalfClose();  // responses owed after EOF must still drain
      std::string line;
      for (size_t i = 0; i < kRounds * data.num_rows(); ++i) {
        const size_t r = i % data.num_rows();
        ASSERT_TRUE(client.RecvLine(&line))
            << c.name << ": EOF before response " << i;
        auto doc = ParseJson(line);
        ASSERT_TRUE(doc.ok()) << line;
        ASSERT_EQ(doc->StringOr("error", ""), "") << line;
        EXPECT_EQ(doc->StringOr("model", ""), c.name) << line;
        const uint64_t version =
            static_cast<uint64_t>(doc->NumberOr("snapshot", 0));
        const std::vector<double>& expect =
            version % 2 == 1 ? *c.expect_x : *c.expect_y;
        const JsonValue* score = doc->Find("score");
        ASSERT_NE(score, nullptr) << line;
        ASSERT_EQ(score->number, expect[r])
            << c.name << " row " << r << " v" << version;
        if (version >= 2) swapped_responses.fetch_add(1);
      }
      EXPECT_TRUE(client.AtEof()) << c.name;
    });
  }
  for (auto& t : clients) t.join();
  done.store(true);
  alpha_swapper.join();
  beta_swapper.join();
  EXPECT_GT(swapped_responses.load(), 0u);
  server.Shutdown();
}

// A swap command naming a route publishes to that route over the wire;
// the default route's model keeps serving unchanged.
TEST(TcpServeTest, SwapCommandByNamePublishesNamedRoute) {
  auto live = MakeSnapshot(7201, "live");
  const Dataset data = ml_testing::LinearlySeparable(50, 7202);
  const std::vector<double> expect_live = live->ScoreBatch(data, nullptr);

  // Train a second forest and persist it the way the CLI would load it:
  // serialized forest + .features sidecar.
  const Dataset train = ml_testing::LinearlySeparable(400, 7203);
  RandomForestOptions forest_options;
  forest_options.num_trees = 8;
  forest_options.min_samples_split = 20;
  RandomForest forest(forest_options);
  ASSERT_TRUE(forest.Fit(train).ok());
  const std::string path = ::testing::TempDir() + "/tcp_swap_model.bin";
  ASSERT_TRUE(SaveRandomForest(forest, path).ok());
  {
    std::ofstream sidecar(path + ".features");
    for (const std::string& name : train.feature_names()) {
      sidecar << name << "\n";
    }
  }
  auto challenger = ModelSnapshot::LoadFromFile(path);
  ASSERT_TRUE(challenger.ok()) << challenger.status().ToString();
  const std::vector<double> expect_challenger =
      (*challenger)->ScoreBatch(data, nullptr);

  ModelRouter router;
  router.Publish("", live);
  TcpScoringServer server(&router);
  ASSERT_TRUE(server.Start().ok());

  TcpClient client;
  client.Connect(server.port());
  client.SendAll("{\"cmd\":\"swap\",\"model\":\"" + JsonEscape(path) +
                 "\",\"name\":\"challenger\"}\n");
  std::string line;
  ASSERT_TRUE(client.RecvLine(&line));
  auto swap_doc = ParseJson(line);
  ASSERT_TRUE(swap_doc.ok()) << line;
  const JsonValue* swap_ok = swap_doc->Find("ok");
  ASSERT_NE(swap_ok, nullptr) << line;
  EXPECT_TRUE(swap_ok->boolean) << line;
  EXPECT_EQ(swap_doc->StringOr("name", ""), "challenger") << line;

  std::string stream;
  for (size_t r = 0; r < data.num_rows(); ++r) {
    stream += ScoreFrame(2 * r + 2, static_cast<int64_t>(r), "challenger",
                         data.Row(r));
    stream += ScoreFrame(2 * r + 3, static_cast<int64_t>(r), "", data.Row(r));
  }
  client.SendAll(stream);
  for (size_t r = 0; r < data.num_rows(); ++r) {
    ASSERT_TRUE(client.RecvLine(&line));
    auto named = ParseJson(line);
    ASSERT_TRUE(named.ok()) << line;
    ASSERT_EQ(named->StringOr("error", ""), "") << line;
    EXPECT_EQ(named->Find("score")->number, expect_challenger[r]) << line;
    ASSERT_TRUE(client.RecvLine(&line));
    auto defaulted = ParseJson(line);
    ASSERT_TRUE(defaulted.ok()) << line;
    EXPECT_EQ(defaulted->Find("score")->number, expect_live[r]) << line;
  }
  server.Shutdown();
}

// Unknown model names come back as non-retryable errors; the connection
// survives and keeps serving.
TEST(TcpServeTest, UnknownModelErrorsWithoutClosing) {
  auto snapshot = MakeSnapshot(7301, "only-default");
  const Dataset data = ml_testing::LinearlySeparable(5, 7302);
  ModelRouter router;
  router.Publish("", snapshot);
  TcpScoringServer server(&router);
  ASSERT_TRUE(server.Start().ok());

  TcpClient client;
  client.Connect(server.port());
  client.SendAll(ScoreFrame(1, 10, "no-such-model", data.Row(0)));
  std::string line;
  ASSERT_TRUE(client.RecvLine(&line));
  auto error = ParseJson(line);
  ASSERT_TRUE(error.ok()) << line;
  EXPECT_NE(error->StringOr("error", ""), "") << line;

  client.SendAll(ScoreFrame(2, 10, "", data.Row(0)));
  ASSERT_TRUE(client.RecvLine(&line));
  auto ok_doc = ParseJson(line);
  ASSERT_TRUE(ok_doc.ok()) << line;
  EXPECT_EQ(ok_doc->StringOr("error", ""), "") << line;
  EXPECT_EQ(ok_doc->Find("score")->number, snapshot->Score(data.Row(0)));
  server.Shutdown();
}

// An unterminated line beyond max_line_bytes is unrecoverable framing:
// one InvalidArgument response, then the server closes the connection.
TEST(TcpServeTest, OversizedLineErrorsAndCloses) {
  auto snapshot = MakeSnapshot(7401, "bound");
  ModelRouter router;
  router.Publish("", snapshot);
  TcpServerOptions options;
  options.max_line_bytes = 1024;
  TcpScoringServer server(&router, options);
  ASSERT_TRUE(server.Start().ok());

  TcpClient client;
  client.Connect(server.port());
  client.SendAll(std::string(4096, 'x'));  // no newline, 4x the bound
  std::string line;
  ASSERT_TRUE(client.RecvLine(&line));
  auto doc = ParseJson(line);
  ASSERT_TRUE(doc.ok()) << line;
  EXPECT_NE(doc->StringOr("error", "").find("exceeds"), std::string::npos)
      << line;
  EXPECT_TRUE(client.AtEof());
  server.Shutdown();
}

// Garbage that still fits the frame bound is a per-request parse error;
// the connection stays usable.
TEST(TcpServeTest, GarbageLineErrorsWithoutClosing) {
  auto snapshot = MakeSnapshot(7501, "garbage");
  const Dataset data = ml_testing::LinearlySeparable(5, 7502);
  ModelRouter router;
  router.Publish("", snapshot);
  TcpScoringServer server(&router);
  ASSERT_TRUE(server.Start().ok());

  TcpClient client;
  client.Connect(server.port());
  client.SendAll("this is not json\n{\"id\":7}\n");
  std::string line;
  ASSERT_TRUE(client.RecvLine(&line));
  EXPECT_NE(ParseJson(line)->StringOr("error", ""), "") << line;
  ASSERT_TRUE(client.RecvLine(&line));  // missing "features"
  EXPECT_NE(ParseJson(line)->StringOr("error", ""), "") << line;

  client.SendAll(ScoreFrame(8, 1, "", data.Row(0)));
  ASSERT_TRUE(client.RecvLine(&line));
  EXPECT_EQ(ParseJson(line)->Find("score")->number,
            snapshot->Score(data.Row(0)));
  server.Shutdown();
}

// A tiny admission queue under a burst must shed with retryable
// Unavailable errors — never stall, never drop a request silently.
TEST(TcpServeTest, OverloadShedsWithRetryableUnavailable) {
  auto snapshot = MakeSnapshot(7601, "overload");
  const Dataset data = ml_testing::LinearlySeparable(64, 7602);
  const std::vector<double> expected = snapshot->ScoreBatch(data, nullptr);
  ModelRouterOptions router_options;
  router_options.executor.max_batch_size = 1;
  router_options.executor.max_queue_depth = 2;
  ModelRouter router(router_options);
  router.Publish("", snapshot);
  TcpScoringServer server(&router);
  ASSERT_TRUE(server.Start().ok());

  TcpClient client;
  client.Connect(server.port());
  std::string stream;
  for (size_t r = 0; r < data.num_rows(); ++r) {
    stream += ScoreFrame(r + 1, static_cast<int64_t>(r), "", data.Row(r));
  }
  client.SendAll(stream);
  client.HalfClose();

  size_t scored = 0, shed = 0;
  std::string line;
  for (size_t r = 0; r < data.num_rows(); ++r) {
    ASSERT_TRUE(client.RecvLine(&line)) << "EOF before response " << r;
    auto doc = ParseJson(line);
    ASSERT_TRUE(doc.ok()) << line;
    EXPECT_EQ(doc->NumberOr("id", 0), static_cast<double>(r + 1)) << line;
    if (doc->Find("score") != nullptr) {
      EXPECT_EQ(doc->Find("score")->number, expected[r]) << line;
      ++scored;
    } else {
      // Shed responses are explicitly retryable.
      const JsonValue* retry = doc->Find("retry");
      ASSERT_NE(retry, nullptr) << line;
      EXPECT_TRUE(retry->boolean) << line;
      ++shed;
    }
  }
  EXPECT_TRUE(client.AtEof());
  EXPECT_EQ(scored + shed, data.num_rows());
  EXPECT_GT(scored, 0u);  // some work always lands
  server.Shutdown();
}

// quit acknowledges outstanding scores first, then closes.
TEST(TcpServeTest, QuitClosesAfterDrainingResponses) {
  auto snapshot = MakeSnapshot(7701, "quit");
  const Dataset data = ml_testing::LinearlySeparable(10, 7702);
  ModelRouter router;
  router.Publish("", snapshot);
  TcpScoringServer server(&router);
  ASSERT_TRUE(server.Start().ok());

  TcpClient client;
  client.Connect(server.port());
  std::string stream;
  for (size_t r = 0; r < data.num_rows(); ++r) {
    stream += ScoreFrame(r + 1, static_cast<int64_t>(r), "", data.Row(r));
  }
  stream += "{\"cmd\":\"quit\"}\n";
  client.SendAll(stream);
  std::string line;
  for (size_t r = 0; r < data.num_rows(); ++r) {
    ASSERT_TRUE(client.RecvLine(&line)) << "EOF before response " << r;
    EXPECT_EQ(ParseJson(line)->Find("score")->number,
              snapshot->Score(data.Row(r)))
        << line;
  }
  EXPECT_TRUE(client.AtEof());
  server.Shutdown();
}

// stats lists every live route by name, with its snapshot version,
// queue depth and per-route request counters.
TEST(TcpServeTest, StatsListsRoutesWithPerRouteCounters) {
  auto shadow = MakeSnapshot(7802, "stats-shadow");
  const Dataset data = ml_testing::LinearlySeparable(7, 7803);
  ModelRouter router;
  router.Publish("", MakeSnapshot(7801, "stats-default"));
  router.Publish("shadow", shadow);
  router.Publish("shadow", shadow);  // bump the route-local version to 2
  TcpScoringServer server(&router);
  ASSERT_TRUE(server.Start().ok());

  TcpClient client;
  client.Connect(server.port());
  std::string stream;
  for (size_t r = 0; r < data.num_rows(); ++r) {
    stream += ScoreFrame(r + 1, static_cast<int64_t>(r), "shadow",
                         data.Row(r));
  }
  client.SendAll(stream);
  std::string line;
  for (size_t r = 0; r < data.num_rows(); ++r) {
    ASSERT_TRUE(client.RecvLine(&line));
    EXPECT_EQ(ParseJson(line)->StringOr("error", ""), "") << line;
  }

  client.SendAll("{\"cmd\":\"stats\"}\n");
  ASSERT_TRUE(client.RecvLine(&line));
  auto doc = ParseJson(line);
  ASSERT_TRUE(doc.ok()) << line;
  const JsonValue* models = doc->Find("models");
  ASSERT_NE(models, nullptr) << line;
  ASSERT_TRUE(models->is_array()) << line;
  ASSERT_EQ(models->items.size(), 2u) << line;
  // RouteNames order: "" first, then "shadow".
  const JsonValue& default_route = models->items[0];
  EXPECT_EQ(default_route.StringOr("model", "?"), "") << line;
  EXPECT_EQ(default_route.NumberOr("snapshot", 0), 1.0) << line;
  EXPECT_EQ(default_route.NumberOr("scored", -1), 0.0) << line;
  const JsonValue& shadow_route = models->items[1];
  EXPECT_EQ(shadow_route.StringOr("model", ""), "shadow") << line;
  EXPECT_EQ(shadow_route.StringOr("label", ""), "stats-shadow") << line;
  EXPECT_EQ(shadow_route.NumberOr("snapshot", 0), 2.0) << line;
  // Every response above was delivered before stats was even sent, so
  // the route counter is exact, and its admission queue is empty again.
  EXPECT_EQ(shadow_route.NumberOr("scored", 0),
            static_cast<double>(data.num_rows()))
      << line;
  EXPECT_EQ(shadow_route.NumberOr("queue_depth", -1), 0.0) << line;
  EXPECT_EQ(shadow_route.NumberOr("rejected", -1), 0.0) << line;
  EXPECT_NE(shadow_route.StringOr("fingerprint", ""), "") << line;
  server.Shutdown();
}

// The metrics verb returns the full registry snapshot over the wire; its
// values must agree with MetricsRegistry::Global().Snapshot() (counters
// bracketed between snapshots taken around the verb, since the registry
// is process-global and monotonic).
TEST(TcpServeTest, MetricsVerbMatchesRegistrySnapshot) {
  auto snapshot = MakeSnapshot(8101, "metrics-verb");
  const Dataset data = ml_testing::LinearlySeparable(30, 8102);
  ModelRouter router;
  router.Publish("", snapshot);
  TcpScoringServer server(&router);
  ASSERT_TRUE(server.Start().ok());

  TcpClient client;
  client.Connect(server.port());
  std::string stream;
  for (size_t r = 0; r < data.num_rows(); ++r) {
    stream += ScoreFrame(r + 1, static_cast<int64_t>(r), "", data.Row(r));
  }
  client.SendAll(stream);
  std::string line;
  for (size_t r = 0; r < data.num_rows(); ++r) {
    ASSERT_TRUE(client.RecvLine(&line));
    EXPECT_EQ(ParseJson(line)->StringOr("error", ""), "") << line;
  }

  const uint64_t requests_before = CounterValue("serve.executor.requests");
  client.SendAll("{\"cmd\":\"metrics\"}\n");
  ASSERT_TRUE(client.RecvLine(&line));
  const uint64_t requests_after = CounterValue("serve.executor.requests");

  auto doc = ParseJson(line);
  ASSERT_TRUE(doc.ok()) << line;
  EXPECT_EQ(doc->StringOr("cmd", ""), "metrics");
  const JsonValue* metrics = doc->Find("metrics");
  ASSERT_NE(metrics, nullptr) << line;
  ASSERT_TRUE(metrics->is_array());
  double reported_requests = -1.0;
  double total_count = -1.0;
  std::string total_kind;
  for (const JsonValue& metric : metrics->items) {
    const std::string name = metric.StringOr("name", "");
    if (name == "serve.executor.requests") {
      reported_requests = metric.NumberOr("value", -1);
    }
    if (name == "serve.request.total_seconds") {
      total_count = metric.NumberOr("count", -1);
      total_kind = metric.StringOr("kind", "");
    }
  }
  EXPECT_GE(reported_requests, static_cast<double>(requests_before));
  EXPECT_LE(reported_requests, static_cast<double>(requests_after));
  // Per-connection ordering means every earlier response's write/total
  // stage was recorded before the metrics line was even read, so the
  // full request pipeline shows up in the snapshot.
  EXPECT_EQ(total_kind, "log_histogram");
  EXPECT_GE(total_count, static_cast<double>(data.num_rows()));
  server.Shutdown();
}

// Everything the endpoint returns for one scrape, headers + body.
std::string HttpGet(int port) {
  TcpClient client;
  client.Connect(port);
  client.SetRecvTimeout(10);
  client.SendAll("GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n");
  std::string response;
  std::string line;
  while (client.RecvLine(&line)) response += line + "\n";
  return response;
}

// Acceptance: a live TCP scoring server with --metrics-port answers a
// plaintext scrape with well-formed Prometheus text including the
// serve_request_total_seconds histogram series.
TEST(TcpServeTest, MetricsEndpointServesPrometheusScrape) {
  auto snapshot = MakeSnapshot(8201, "prometheus");
  const Dataset data = ml_testing::LinearlySeparable(25, 8202);
  ModelRouter router;
  router.Publish("", snapshot);
  TcpScoringServer server(&router);
  ASSERT_TRUE(server.Start().ok());
  MetricsHttpEndpoint endpoint;  // port 0 = ephemeral
  ASSERT_TRUE(endpoint.Start().ok());
  ASSERT_GT(endpoint.port(), 0);

  TcpClient client;
  client.Connect(server.port());
  std::string stream;
  for (size_t r = 0; r < data.num_rows(); ++r) {
    stream += ScoreFrame(r + 1, static_cast<int64_t>(r), "", data.Row(r));
  }
  client.SendAll(stream);
  std::string line;
  for (size_t r = 0; r < data.num_rows(); ++r) {
    ASSERT_TRUE(client.RecvLine(&line));
    EXPECT_EQ(ParseJson(line)->StringOr("error", ""), "") << line;
  }
  // One request on the scoring connection after the scores guarantees
  // their write/total observations happened-before this point (the same
  // reader thread recorded them before reading this line).
  client.SendAll("{\"cmd\":\"stats\"}\n");
  ASSERT_TRUE(client.RecvLine(&line));

  const std::string response = HttpGet(endpoint.port());
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK", 0), 0u)
      << response.substr(0, 200);
  EXPECT_NE(response.find("Content-Type: text/plain"), std::string::npos);
  EXPECT_NE(response.find("# TYPE serve_request_total_seconds histogram"),
            std::string::npos);
  EXPECT_NE(response.find("serve_request_total_seconds_bucket{le=\""),
            std::string::npos);
  EXPECT_NE(response.find("serve_request_total_seconds_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(response.find("serve_request_total_seconds_sum"),
            std::string::npos);
  EXPECT_NE(response.find("serve_request_total_seconds_count"),
            std::string::npos);
  EXPECT_NE(response.find("# TYPE serve_executor_requests counter"),
            std::string::npos);

  // The scrape is repeatable (one connection per scrape, HTTP/1.0
  // close semantics) and the scrape counter moves.
  const std::string again = HttpGet(endpoint.port());
  EXPECT_NE(again.find("serve_metrics_scrapes"), std::string::npos);

  endpoint.Stop();
  server.Shutdown();
}

// --trace-sample=1 while the recorder runs: every scored request leaves
// a root serve.request span with queue_wait/score/write children
// parented to it.
TEST(TcpServeTest, TraceSampleEmitsRequestScopedSpans) {
  auto snapshot = MakeSnapshot(8301, "spans");
  const Dataset data = ml_testing::LinearlySeparable(12, 8302);
  ModelRouter router;
  router.Publish("", snapshot);
  TcpServerOptions options;
  options.trace_sample = 1;
  TcpScoringServer server(&router, options);
  ASSERT_TRUE(server.Start().ok());

  TraceRecorder::Global().Start();
  TcpClient client;
  client.Connect(server.port());
  std::string stream;
  for (size_t r = 0; r < data.num_rows(); ++r) {
    stream += ScoreFrame(r + 1, static_cast<int64_t>(r), "", data.Row(r));
  }
  client.SendAll(stream);
  std::string line;
  for (size_t r = 0; r < data.num_rows(); ++r) {
    ASSERT_TRUE(client.RecvLine(&line));
    EXPECT_EQ(ParseJson(line)->StringOr("error", ""), "") << line;
  }
  server.Shutdown();  // joins readers: every span append happened-before
  TraceRecorder::Global().Stop();

  const std::vector<TraceEvent> events = TraceRecorder::Global().Collect();
  std::vector<uint64_t> roots;
  size_t queue_wait = 0, score = 0, write = 0;
  for (const TraceEvent& event : events) {
    if (event.name == "serve.request") {
      EXPECT_EQ(event.parent_id, 0u);
      roots.push_back(event.id);
    }
  }
  EXPECT_EQ(roots.size(), data.num_rows());
  for (const TraceEvent& event : events) {
    const bool is_child = std::find(roots.begin(), roots.end(),
                                    event.parent_id) != roots.end();
    if (event.name == "serve.request.queue_wait") {
      EXPECT_TRUE(is_child);
      ++queue_wait;
    } else if (event.name == "serve.request.score") {
      EXPECT_TRUE(is_child);
      ++score;
    } else if (event.name == "serve.request.write") {
      EXPECT_TRUE(is_child);
      ++write;
    }
  }
  EXPECT_EQ(queue_wait, data.num_rows());
  EXPECT_EQ(score, data.num_rows());
  EXPECT_EQ(write, data.num_rows());
}

// Every observability surface live at once under a swap storm: the
// flight recorder ticks at millisecond cadence and a scraper hammers
// the metrics endpoint while a swapper republishes the route and
// clients stream scores. The TSan soak repeats this case — snapshot
// reads racing publishes, registry shard merges racing observers, and
// the HTTP thread racing everything must all be clean.
TEST(TcpServeTest, ObservabilitySoakUnderSwapStorm) {
  auto v1 = MakeSnapshot(8401, "soak-v1");
  auto v2 = MakeSnapshot(8402, "soak-v2");
  const Dataset data = ml_testing::LinearlySeparable(150, 8403);

  ModelRouterOptions router_options;
  router_options.executor.max_batch_size = 13;
  ModelRouter router(router_options);
  router.Publish("", v1);
  TcpScoringServer server(&router);
  ASSERT_TRUE(server.Start().ok());
  MetricsHttpEndpoint endpoint;
  ASSERT_TRUE(endpoint.Start().ok());

  const std::string jsonl_path =
      ::testing::TempDir() + "/observability_soak.jsonl";
  std::remove(jsonl_path.c_str());
  FlightRecorderOptions recorder_options;
  recorder_options.path = jsonl_path;
  recorder_options.interval_s = 0.002;  // tick as often as possible
  FlightRecorder recorder(recorder_options);
  ASSERT_TRUE(recorder.Start().ok());

  std::atomic<bool> done{false};
  std::thread swapper([&] {
    for (int k = 2; !done.load(); ++k) {
      router.Publish("", k % 2 == 0 ? v2 : v1);
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });
  std::atomic<size_t> scrapes{0};
  std::thread scraper([&] {
    while (!done.load()) {
      const std::string response = HttpGet(endpoint.port());
      if (response.rfind("HTTP/1.0 200 OK", 0) == 0) scrapes.fetch_add(1);
    }
  });

  constexpr size_t kRounds = 3;
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&] {
      TcpClient client;
      client.Connect(server.port());
      std::string stream;
      for (size_t round = 0; round < kRounds; ++round) {
        for (size_t r = 0; r < data.num_rows(); ++r) {
          stream += ScoreFrame(r + 1, static_cast<int64_t>(r), "",
                               data.Row(r));
        }
      }
      client.SendAll(stream);
      client.HalfClose();
      std::string line;
      for (size_t i = 0; i < kRounds * data.num_rows(); ++i) {
        ASSERT_TRUE(client.RecvLine(&line)) << "EOF before response " << i;
        EXPECT_EQ(ParseJson(line)->StringOr("error", ""), "") << line;
      }
    });
  }
  for (auto& t : clients) t.join();
  done.store(true);
  swapper.join();
  scraper.join();
  recorder.Stop();
  endpoint.Stop();
  server.Shutdown();

  EXPECT_GT(scrapes.load(), 0u);
  // The JSONL written during the storm parses line by line.
  std::ifstream in(jsonl_path);
  std::string line;
  size_t ticks = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    EXPECT_TRUE(ParseJson(line).ok()) << line;
    ++ticks;
  }
  EXPECT_GT(ticks, 0u);
  std::remove(jsonl_path.c_str());
}

// The binned engine behind the wire protocol must produce byte-identical
// responses to the exact scorer, the pointer walk: every response line is
// compared with the line formatted from the snapshot's per-row
// pointer-walk score.
TEST(TcpServeTest, BinnedEngineWireParityWithExact) {
  auto snapshot = MakeSnapshot(7901, "engine-parity");
  const Dataset data = ml_testing::LinearlySeparable(120, 7902);

  ModelRouter router;
  router.Publish("", snapshot);
  TcpScoringServer server(&router);
  ASSERT_TRUE(server.Start().ok());

  const uint64_t binned_rows_before =
      CounterValue("ml.binned_forest.batch_rows");
  TcpClient client;
  client.Connect(server.port());
  std::string stream;
  for (size_t r = 0; r < data.num_rows(); ++r) {
    stream += ScoreFrame(r + 1, static_cast<int64_t>(r), "", data.Row(r));
  }
  client.SendAll(stream);
  client.HalfClose();
  std::string line;
  for (size_t r = 0; r < data.num_rows(); ++r) {
    ASSERT_TRUE(client.RecvLine(&line)) << "EOF before response " << r;
    ScoreRequest request;
    request.id = r + 1;
    request.imsi = static_cast<int64_t>(r);
    ScoreOutcome expected;
    expected.score = snapshot->Score(data.Row(r));
    expected.snapshot_version = 1;
    EXPECT_EQ(line, FormatScoreResponse(request, expected)) << "row " << r;
  }
  EXPECT_TRUE(client.AtEof());
  // Proof the wire scores came from the binned engine.
  EXPECT_GE(CounterValue("ml.binned_forest.batch_rows"),
            binned_rows_before + data.num_rows());
  server.Shutdown();
}

// A connection that goes quiet mid-frame (the slow-loris shape: bytes
// but never a newline, then silence) is reaped after idle_timeout_s; a
// client that keeps scoring on the same server is untouched.
TEST(TcpServeTest, IdleReaperClosesStalledConnectionOnly) {
  auto snapshot = MakeSnapshot(8001, "reaper");
  const Dataset data = ml_testing::LinearlySeparable(5, 8002);
  ModelRouter router;
  router.Publish("", snapshot);
  TcpServerOptions options;
  options.idle_timeout_s = 1;
  TcpScoringServer server(&router, options);
  ASSERT_TRUE(server.Start().ok());

  const uint64_t reaped_before = CounterValue("serve.tcp.idle_reaped");

  TcpClient stalled;
  stalled.Connect(server.port());
  stalled.SetRecvTimeout(10);
  stalled.SendAll("{\"id\":1,\"features\":[");  // half a frame, then silence

  TcpClient active;
  active.Connect(server.port());
  active.SetRecvTimeout(10);

  // Keep the active client busy across more than one idle window while
  // the stalled one sits; every response must keep arriving.
  std::string line;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(2500);
  size_t sent = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    active.SendAll(ScoreFrame(++sent, 1, "", data.Row(sent % 5)));
    ASSERT_TRUE(active.RecvLine(&line)) << "active client lost response";
    EXPECT_EQ(ParseJson(line)->StringOr("error", ""), "") << line;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  // The stalled connection must be gone by now (timeout 1s + sweep lag).
  EXPECT_TRUE(stalled.AtEof()) << "stalled connection was not reaped";
  EXPECT_GE(CounterValue("serve.tcp.idle_reaped"), reaped_before + 1);

  // And the survivor still scores.
  active.SendAll(ScoreFrame(9999, 1, "", data.Row(0)));
  ASSERT_TRUE(active.RecvLine(&line));
  EXPECT_EQ(ParseJson(line)->Find("score")->number,
            snapshot->Score(data.Row(0)));
  server.Shutdown();
}

}  // namespace
}  // namespace telco
