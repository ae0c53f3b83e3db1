#include "serve/serve_stats.h"

#include "common/string_util.h"
#include "common/telemetry/json.h"
#include "common/telemetry/trace.h"

namespace telco {

namespace {

struct QuantilesMs {
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

QuantilesMs HistogramQuantilesMs(const MetricsSnapshot& metrics,
                                 const std::string& name) {
  QuantilesMs q;
  const MetricValue* metric = metrics.Find(name);
  if (metric != nullptr && metric->histogram.count > 0) {
    q.p50 = metric->histogram.Quantile(0.50) * 1e3;
    q.p99 = metric->histogram.Quantile(0.99) * 1e3;
    q.p999 = metric->histogram.Quantile(0.999) * 1e3;
  }
  return q;
}

std::string QuantilesJson(const QuantilesMs& q) {
  return StrFormat("{\"p50_ms\":%s,\"p99_ms\":%s,\"p999_ms\":%s}",
                   JsonNumber(q.p50).c_str(), JsonNumber(q.p99).c_str(),
                   JsonNumber(q.p999).c_str());
}

}  // namespace

const ServeStageHistograms& StageHistograms() {
  static const ServeStageHistograms* const m = [] {
    MetricsRegistry& r = MetricsRegistry::Global();
    return new ServeStageHistograms{
        r.GetLogHistogram("serve.request.parse_seconds"),
        r.GetLogHistogram("serve.request.write_seconds"),
        r.GetLogHistogram("serve.request.total_seconds"),
    };
  }();
  return *m;
}

std::string ServeStatsCoreJson(const MetricsSnapshot& metrics) {
  const auto counter = [&metrics](const char* name) -> unsigned long long {
    const MetricValue* value = metrics.Find(name);
    return value == nullptr ? 0 : value->counter;
  };
  const QuantilesMs latency =
      HistogramQuantilesMs(metrics, "serve.executor.latency_seconds");
  std::string stages;
  static constexpr const char* kStages[] = {"parse", "queue_wait", "score",
                                            "write", "total"};
  for (const char* stage : kStages) {
    if (!stages.empty()) stages += ',';
    stages += StrFormat(
        "\"%s\":%s", stage,
        QuantilesJson(HistogramQuantilesMs(
                          metrics, StrFormat("serve.request.%s_seconds",
                                             stage)))
            .c_str());
  }
  return StrFormat(
      "\"requests\":%llu,\"batches\":%llu,\"rejected\":%llu,"
      "\"p50_ms\":%s,\"p99_ms\":%s,\"p999_ms\":%s,\"stages\":{%s}",
      counter("serve.executor.requests"), counter("serve.executor.batches"),
      counter("serve.executor.rejected"), JsonNumber(latency.p50).c_str(),
      JsonNumber(latency.p99).c_str(), JsonNumber(latency.p999).c_str(),
      stages.c_str());
}

std::string RouteStatsJson(const ModelRouter::RouteStats& route,
                           const MetricsSnapshot& metrics) {
  const QuantilesMs latency = HistogramQuantilesMs(
      metrics, "serve.route." + (route.name.empty() ? "default" : route.name) +
                   ".latency_seconds");
  return StrFormat(
      "{\"model\":\"%s\",\"snapshot\":%llu,\"label\":\"%s\","
      "\"fingerprint\":\"%08x\",\"queue_depth\":%zu,"
      "\"scored\":%llu,\"rejected\":%llu,\"latency\":%s}",
      JsonEscape(route.name).c_str(),
      static_cast<unsigned long long>(route.snapshot_version),
      JsonEscape(route.label).c_str(), route.fingerprint,
      route.queue_depth,
      static_cast<unsigned long long>(route.scored),
      static_cast<unsigned long long>(route.rejected),
      QuantilesJson(latency).c_str());
}

std::string MetricsResponseJson(const MetricsSnapshot& metrics) {
  return "{\"cmd\":\"metrics\",\"metrics\":" + metrics.ToJson() + "}";
}

uint64_t RequestTraceSampler::Sample() {
  if (sample_every_ == 0) return 0;
  TraceRecorder& recorder = TraceRecorder::Global();
  if (!recorder.enabled()) return 0;
  if (counter_.fetch_add(1, std::memory_order_relaxed) % sample_every_ != 0) {
    return 0;
  }
  return recorder.AllocateSpanId();
}

}  // namespace telco
