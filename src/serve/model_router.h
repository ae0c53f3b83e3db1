// ModelRouter: multi-model serving in front of SnapshotRegistry.
//
// The paper's operator does not serve one global model: champion and
// challenger models coexist, and segments (prepaid/postpaid, region,
// month) score against different forests that retrain on different
// cadences. The router keys each *route* by name — a route owns its own
// SnapshotRegistry (independent hot swap, independent version counter)
// and its own micro-batching ScoringExecutor (so one model's batches
// never mix rows with another's, preserving the one-snapshot-per-batch
// bit-parity guarantee per route). The empty name "" is the default
// route, which keeps the single-model protocol working unchanged.
//
// Routes are created on first Publish and never removed: a route pointer
// is stable for the router's lifetime, so the per-request lock is one
// map lookup. Unknown names fail fast with NotFound — a typo'd segment
// name must never silently score against the wrong model.

#ifndef TELCO_SERVE_MODEL_ROUTER_H_
#define TELCO_SERVE_MODEL_ROUTER_H_

#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "serve/scoring_executor.h"
#include "serve/snapshot_registry.h"

namespace telco {

struct ModelRouterOptions {
  /// Every route's executor is built with these options (shared pool,
  /// batch size, admission-queue bound).
  ScoringExecutorOptions executor;
};

/// \brief Routes score requests to named (SnapshotRegistry,
/// ScoringExecutor) pairs; "" is the default route.
class ModelRouter {
 public:
  explicit ModelRouter(ModelRouterOptions options = {});

  ModelRouter(const ModelRouter&) = delete;
  ModelRouter& operator=(const ModelRouter&) = delete;

  /// Publishes `snapshot` as the next version of route `name`, creating
  /// the route on its first publish. Returns the route-local version (1
  /// for a route's first model). Thread-safe against concurrent Submit
  /// and Publish on any route.
  uint64_t Publish(const std::string& name,
                   std::shared_ptr<const ModelSnapshot> snapshot);

  /// Submits to the route named by request.model. NotFound for a route
  /// that has never been published; otherwise the route executor's
  /// admission verdict (Unavailable on a full queue).
  Result<std::future<ScoreOutcome>> Submit(ScoreRequest request,
                                           RequestTelemetry telemetry = {});

  /// Callback flavour for event-loop callers (the TCP front-end); same
  /// routing and admission semantics as Submit.
  Status SubmitWithCallback(ScoreRequest request,
                            std::function<void(ScoreOutcome)> done,
                            RequestTelemetry telemetry = {});

  /// The registry behind route `name` (NotFound if never published).
  /// Stable for the router's lifetime.
  Result<SnapshotRegistry*> RouteRegistry(const std::string& name) const;

  /// True iff route `name` exists.
  bool HasRoute(const std::string& name) const;

  /// Route names in lexicographic order ("" first when present).
  std::vector<std::string> RouteNames() const;

  /// Point-in-time observability snapshot of one route: which snapshot
  /// is live and how its executor is doing. Counters are per-route (the
  /// executors own them), unlike the process-wide serve.executor.*
  /// metrics which sum every route.
  struct RouteStats {
    std::string name;
    /// Live snapshot version (0 = route exists but nothing acquired yet).
    uint64_t snapshot_version = 0;
    std::string label;
    uint32_t fingerprint = 0;
    /// Requests waiting in this route's admission queue right now.
    size_t queue_depth = 0;
    /// Requests this route has finished scoring (incl. per-row failures).
    uint64_t scored = 0;
    /// Requests this route refused at admission (full queue).
    uint64_t rejected = 0;
  };

  /// Stats for every route, in RouteNames() order. Each route's fields
  /// are read without stopping its traffic, so the snapshot is
  /// per-field consistent, not cross-field atomic.
  std::vector<RouteStats> Stats() const;

  /// Blocks until every accepted request on every route has completed.
  void DrainAll();

 private:
  struct Route {
    explicit Route(const ScoringExecutorOptions& options)
        : executor(&registry, options) {}
    SnapshotRegistry registry;
    ScoringExecutor executor;
  };

  /// The route for `name`, or null if it does not exist. The returned
  /// pointer stays valid for the router's lifetime (routes are never
  /// erased).
  Route* FindRoute(const std::string& name) const;

  ModelRouterOptions options_;
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Route>> routes_;
};

}  // namespace telco

#endif  // TELCO_SERVE_MODEL_ROUTER_H_
