#include "serve/model_router.h"

#include <utility>

#include "common/telemetry/metrics.h"

namespace telco {

namespace {

Status UnknownRoute(const std::string& name) {
  return Status::NotFound(
      name.empty()
          ? std::string("no default model published; publish one or name "
                        "a model with \"model\":\"...\"")
          : "unknown model \"" + name + "\"; publish it before scoring");
}

}  // namespace

ModelRouter::ModelRouter(ModelRouterOptions options)
    : options_(options) {}

ModelRouter::Route* ModelRouter::FindRoute(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = routes_.find(name);
  return it == routes_.end() ? nullptr : it->second.get();
}

uint64_t ModelRouter::Publish(const std::string& name,
                              std::shared_ptr<const ModelSnapshot> snapshot) {
  static const Gauge route_count =
      MetricsRegistry::Global().GetGauge("serve.router.routes");
  Route* route;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::unique_ptr<Route>& slot = routes_[name];
    if (slot == nullptr) {
      // Label the route's executor so it records per-route latency
      // quantiles ("" is shown as "default", matching the stats verb).
      ScoringExecutorOptions executor_options = options_.executor;
      executor_options.route_name = name.empty() ? "default" : name;
      slot = std::make_unique<Route>(executor_options);
      route_count.Set(static_cast<double>(routes_.size()));
    }
    route = slot.get();
  }
  // Publish outside the router lock: the registry has its own, and a slow
  // publish must not block routing on other models.
  return route->registry.Publish(std::move(snapshot));
}

Result<std::future<ScoreOutcome>> ModelRouter::Submit(
    ScoreRequest request, RequestTelemetry telemetry) {
  Route* route = FindRoute(request.model);
  if (route == nullptr) return UnknownRoute(request.model);
  return route->executor.Submit(std::move(request), telemetry);
}

Status ModelRouter::SubmitWithCallback(
    ScoreRequest request, std::function<void(ScoreOutcome)> done,
    RequestTelemetry telemetry) {
  Route* route = FindRoute(request.model);
  if (route == nullptr) return UnknownRoute(request.model);
  return route->executor.SubmitWithCallback(std::move(request),
                                            std::move(done), telemetry);
}

Result<SnapshotRegistry*> ModelRouter::RouteRegistry(
    const std::string& name) const {
  Route* route = FindRoute(name);
  if (route == nullptr) return UnknownRoute(name);
  return &route->registry;
}

bool ModelRouter::HasRoute(const std::string& name) const {
  return FindRoute(name) != nullptr;
}

std::vector<std::string> ModelRouter::RouteNames() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(routes_.size());
  for (const auto& [name, _] : routes_) names.push_back(name);
  return names;
}

std::vector<ModelRouter::RouteStats> ModelRouter::Stats() const {
  // Route pointers are stable for the router's lifetime, so collect them
  // under the lock and read each route outside it (Acquire and
  // queue_depth take their own locks; holding ours across them would
  // serialize stats against routing).
  std::vector<std::pair<std::string, Route*>> routes;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    routes.reserve(routes_.size());
    for (const auto& [name, route] : routes_) {
      routes.emplace_back(name, route.get());
    }
  }
  std::vector<RouteStats> stats;
  stats.reserve(routes.size());
  for (const auto& [name, route] : routes) {
    RouteStats entry;
    entry.name = name;
    const SnapshotRef ref = route->registry.Acquire();
    entry.snapshot_version = ref.version;
    if (ref.snapshot != nullptr) {
      entry.label = ref.snapshot->label();
      entry.fingerprint = ref.snapshot->fingerprint();
    }
    entry.queue_depth = route->executor.queue_depth();
    entry.scored = route->executor.completed_requests();
    entry.rejected = route->executor.rejected_requests();
    stats.push_back(std::move(entry));
  }
  return stats;
}

void ModelRouter::DrainAll() {
  // Snapshot the route pointers under the lock, drain outside it (Drain
  // blocks; route pointers are stable).
  std::vector<Route*> routes;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    routes.reserve(routes_.size());
    for (const auto& [_, route] : routes_) routes.push_back(route.get());
  }
  for (Route* route : routes) route->executor.Drain();
}

}  // namespace telco
