// ScoringExecutor: micro-batching online scorer on the shared ThreadPool.
//
// Requests carry one customer feature row. Submit enqueues into a bounded
// admission queue (rejecting with a retry hint when full — backpressure,
// never unbounded memory); a dispatcher thread coalesces queued requests
// into batches of at most max_batch_size, acquires the current snapshot
// ONCE per batch from the SnapshotRegistry, packs the rows into one
// contiguous FeatureMatrix and scores it through the same batch entry
// point the offline pipeline uses (Classifier::PredictProbaBatch — the
// compiled binned forest engine). One snapshot per batch means a
// concurrent hot-swap can never produce a torn batch: every response
// reports the snapshot version that scored it, and its score is
// bit-identical to that snapshot's offline prediction. Schema (row
// width) validation happens ONLY at batch dispatch, against the
// snapshot the batch acquired — a submit-time check would race with a
// concurrent hot swap.
//
// Telemetry (PR-3 registry): serve.executor.requests / rejected /
// batches counters, serve.executor.batch_size and
// serve.executor.latency_seconds histograms (enqueue-to-completion),
// serve.executor.queue_depth gauge.

#ifndef TELCO_SERVE_SCORING_EXECUTOR_H_
#define TELCO_SERVE_SCORING_EXECUTOR_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/telemetry/metrics.h"
#include "ml/binned_forest.h"
#include "serve/snapshot_registry.h"

namespace telco {

class ThreadPool;

/// \brief One scoring request: a customer and their feature row, in the
/// serving snapshot's schema order.
struct ScoreRequest {
  uint64_t id = 0;
  int64_t imsi = 0;
  /// Routing key for multi-model serving (ModelRouter): which named model
  /// should score this row. Empty = the default route. The executor
  /// itself ignores it — routing happens before Submit.
  std::string model;
  std::vector<double> features;
};

/// \brief Outcome of one scored request. `status` is non-OK when the row
/// could not be scored (e.g. its width does not match the snapshot that
/// its batch ran against); backpressure rejections never get this far —
/// they fail at Submit.
struct ScoreOutcome {
  Status status;
  double score = 0.0;
  uint64_t snapshot_version = 0;
  uint32_t model_fingerprint = 0;
};

/// \brief Per-request observability context threaded from the serving
/// front-end (which stamps request arrival and owns the request trace
/// span) into the executor (which records the queue-wait and score stages
/// against it). Defaults are inert: stage histograms fall back to the
/// enqueue time and no spans are emitted.
struct RequestTelemetry {
  /// When the front-end read the request off the wire; start of the
  /// request's `total` stage. Zero (epoch) = unknown, use enqueue time.
  std::chrono::steady_clock::time_point received{};
  /// Request-scoped trace span id allocated by the reader thread (see
  /// TraceRecorder::AllocateSpanId), 0 when the request is unsampled.
  /// Executor-side stage spans use it as their parent, which is how a
  /// request's timeline stays connected across reader and dispatcher
  /// threads in the exported trace.
  uint64_t trace_span = 0;
};

struct ScoringExecutorOptions {
  /// Largest batch one dispatch scores against one snapshot.
  size_t max_batch_size = 64;
  /// Admission-queue bound; Submit rejects with Unavailable beyond it.
  size_t max_queue_depth = 1024;
  /// Pool the batch scoring fans out on (null = process-wide default).
  ThreadPool* pool = nullptr;
  /// Route label for per-route latency: when non-empty the executor also
  /// records `serve.route.<route_name>.latency_seconds` (log-bucketed),
  /// so multi-model stats can report quantiles per route.
  std::string route_name;
};

/// \brief Micro-batching scoring service core (in-process).
class ScoringExecutor {
 public:
  explicit ScoringExecutor(SnapshotRegistry* registry,
                           ScoringExecutorOptions options = {});

  /// Drains the queue and joins the dispatcher.
  ~ScoringExecutor();

  ScoringExecutor(const ScoringExecutor&) = delete;
  ScoringExecutor& operator=(const ScoringExecutor&) = delete;

  /// Enqueues a request. Fails fast with Unavailable ("... retry") when
  /// the admission queue is full — the caller should drain a response
  /// and resubmit. Schema problems (wrong row width, nothing published
  /// yet) are reported on the returned outcome, judged against the
  /// snapshot the request's batch actually scored with — never against
  /// the snapshot current at submit time, which a hot swap may replace
  /// before dispatch.
  Result<std::future<ScoreOutcome>> Submit(ScoreRequest request,
                                           RequestTelemetry telemetry = {});

  /// Callback flavour of Submit for event-loop callers (the TCP
  /// front-end) that must not block on a future: `done` runs exactly once
  /// when the request's batch completes, on the dispatcher thread — it
  /// must not block or re-enter the executor. Admission and validation
  /// semantics are identical to Submit.
  Status SubmitWithCallback(ScoreRequest request,
                            std::function<void(ScoreOutcome)> done,
                            RequestTelemetry telemetry = {});

  /// Blocks until every accepted request has completed.
  void Drain();

  /// Stops accepting work, completes what was accepted, joins the
  /// dispatcher. Idempotent; the destructor calls it.
  void Shutdown();

  /// Requests currently waiting for a batch (diagnostics).
  size_t queue_depth() const;

  /// Requests whose outcome has been delivered (OK or per-row failure),
  /// over this executor's lifetime. Unlike the process-wide
  /// serve.executor.* counters these are per-instance, so a router can
  /// report them per route.
  uint64_t completed_requests() const { return completed_.load(); }

  /// Requests refused at admission (full queue), per instance.
  uint64_t rejected_requests() const { return rejected_.load(); }

  const ScoringExecutorOptions& options() const { return options_; }

 private:
  struct Pending {
    ScoreRequest request;
    std::promise<ScoreOutcome> promise;          // future-based Submit
    std::function<void(ScoreOutcome)> callback;  // SubmitWithCallback
    std::chrono::steady_clock::time_point enqueued;
    RequestTelemetry telemetry;
  };

  /// Shared admission path of both Submit flavours.
  Status Enqueue(Pending pending);

  void DispatchLoop();
  void ScoreBatch(std::vector<Pending> batch);

  SnapshotRegistry* registry_;
  ScoringExecutorOptions options_;
  /// Per-route log-bucketed latency (inert default handle when
  /// route_name is empty).
  Histogram route_latency_;

  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> rejected_{0};

  mutable std::mutex mutex_;
  std::condition_variable queue_cv_;  // dispatcher: work or stop
  std::condition_variable idle_cv_;   // Drain: queue empty + not scoring
  std::deque<Pending> queue_;
  bool in_flight_ = false;
  bool stop_ = false;
  std::thread dispatcher_;
};

}  // namespace telco

#endif  // TELCO_SERVE_SCORING_EXECUTOR_H_
