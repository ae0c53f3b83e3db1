// telcochurn command-line driver.
//
// Subcommands mirror the deployed system's operational loop:
//
//   telcochurn simulate --out DIR [--customers N] [--months M] [--seed S]
//       Simulate the operator and persist the raw warehouse as CSVs.
//
//   telcochurn datagen --out DIR [--scale-factor X | --customers N]
//                      [--months M] [--seed S] [--threads N]
//       Stream a scale-factor warehouse straight to disk (v3 .tbl
//       files): tables never materialise in RAM, so SF 1.0 (~2.1M
//       customers, the paper's population) builds in O(chunk) memory.
//
//   telcochurn train --warehouse DIR --month M --model PATH
//                    [--training-months K] [--trees T]
//       Build wide tables, train the churn forest on labelled months
//       ending at M, and save the model (plus a .features sidecar).
//
//   telcochurn predict --warehouse DIR --model PATH --month M [--top U]
//       Score month M's customers with a saved model and print the
//       ranked churner list as CSV (rank,imsi,likelihood).
//
//   telcochurn evaluate --warehouse DIR --month M [--u U]
//                       [--training-months K] [--trees T]
//       End-to-end sliding-window evaluation with hindsight labels.
//
//   telcochurn run --warehouse DIR --month M --checkpoint-dir DIR
//                  [--u U] [--training-months K] [--trees T] [--threads N]
//       Like evaluate, but checkpoints every completed stage so an
//       interrupted run resumes where it stopped.
//
//   telcochurn resume --checkpoint-dir DIR [--threads N]
//       Continue an interrupted `run` from its checkpoint (the run's
//       flags are re-read from the checkpoint's CONFIG); completed
//       stages are skipped and the output is bit-identical.
//
//   telcochurn metrics --report PATH
//       Pretty-print a run report written by --report-out.
//
//   telcochurn fault-sites
//       List the fault-injection sites accepted by TELCO_FAULT.
//
// evaluate/run/resume additionally accept:
//   --trace-out PATH    write a Chrome trace-event JSON (Perfetto-loadable)
//   --report-out PATH   write a structured run report (JSON)

#include <signal.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "churn/checkpoint.h"
#include "churn/pipeline.h"
#include "common/fault_injection.h"
#include "common/string_util.h"
#include "common/telemetry/flight_recorder.h"
#include "common/telemetry/metrics.h"
#include "common/telemetry/run_report.h"
#include "common/telemetry/timer.h"
#include "common/telemetry/trace.h"
#include "common/thread_pool.h"
#include "datagen/telco_simulator.h"
#include "ml/serialize.h"
#include "serve/metrics_endpoint.h"
#include "serve/model_router.h"
#include "serve/model_snapshot.h"
#include "serve/request_codec.h"
#include "serve/snapshot_registry.h"
#include "serve/stdio_server.h"
#include "serve/tcp_server.h"
#include "storage/atomic_file.h"
#include "storage/streaming_writer.h"
#include "storage/warehouse_io.h"

namespace telco {
namespace {

// ------------------------------------------------------------ flag parsing

class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        error_ = "unexpected argument '" + arg + "'";
        return;
      }
      arg = arg.substr(2);
      // A flag followed by another flag (or nothing) is a boolean switch.
      if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
        values_[arg] = "1";
        continue;
      }
      values_[arg] = argv[++i];
    }
  }

  const std::string& error() const { return error_; }

  Result<std::string> Required(const std::string& name) {
    const auto it = values_.find(name);
    if (it == values_.end()) {
      return Status::InvalidArgument("missing required flag --" + name);
    }
    used_.insert(it->first);
    return it->second;
  }

  std::string Get(const std::string& name, const std::string& fallback) {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    used_.insert(it->first);
    return it->second;
  }

  int64_t GetInt(const std::string& name, int64_t fallback) {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    used_.insert(it->first);
    return std::strtoll(it->second.c_str(), nullptr, 10);
  }

  bool GetBool(const std::string& name) {
    const auto it = values_.find(name);
    if (it == values_.end()) return false;
    used_.insert(it->first);
    return it->second != "0" && it->second != "false";
  }

  Status CheckAllUsed() const {
    for (const auto& [name, _] : values_) {
      if (!used_.count(name)) {
        return Status::InvalidArgument("unknown flag --" + name);
      }
    }
    return Status::OK();
  }

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> used_;
  std::string error_;
};

// ------------------------------------------------------------- telemetry

// --trace-out / --report-out destinations shared by evaluate/run/resume.
struct TelemetryFlags {
  std::string trace_out;
  std::string report_out;
};

TelemetryFlags TelemetryFlagsFrom(Flags& flags) {
  TelemetryFlags t;
  t.trace_out = flags.Get("trace-out", "");
  t.report_out = flags.Get("report-out", "");
  // Start recording before any pipeline work (including the warehouse
  // load) so the trace covers the whole command.
  if (!t.trace_out.empty()) TraceRecorder::Global().Start();
  return t;
}

// Writes the trace and the run report after the command's work is done.
// `quality` may be null (e.g. a run that failed before scoring).
Status WriteTelemetryArtifacts(
    const TelemetryFlags& telemetry, const std::string& command,
    const std::vector<std::pair<std::string, std::string>>& config,
    const StageTimings* timings, const RankingMetrics* quality) {
  if (!telemetry.trace_out.empty()) {
    TraceRecorder::Global().Stop();
    TELCO_RETURN_NOT_OK(WriteFileAtomic(
        telemetry.trace_out, TraceRecorder::Global().ExportJson()));
    std::fprintf(stderr, "trace -> %s\n", telemetry.trace_out.c_str());
  }
  if (!telemetry.report_out.empty()) {
    RunReport report;
    report.kind = "run";
    report.command = command;
    report.config = config;
    if (timings != nullptr) report.SetStages(*timings);
    if (quality != nullptr) {
      report.SetQuality(RunQuality{quality->auc, quality->pr_auc,
                                   quality->recall_at_u,
                                   quality->precision_at_u, quality->u});
    }
    report.metrics = MetricsRegistry::Global().Snapshot();
    TELCO_RETURN_NOT_OK(
        WriteFileAtomic(telemetry.report_out, report.ToJson() + "\n"));
    std::fprintf(stderr, "report -> %s\n", telemetry.report_out.c_str());
  }
  return Status::OK();
}

// --------------------------------------------------------------- commands

Status RunSimulate(Flags& flags) {
  TELCO_ASSIGN_OR_RETURN(const std::string out, flags.Required("out"));
  SimConfig config;
  config.num_customers =
      static_cast<size_t>(flags.GetInt("customers", 10000));
  config.num_months = static_cast<int>(flags.GetInt("months", 9));
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 2015));
  TELCO_RETURN_NOT_OK(flags.CheckAllUsed());

  Catalog catalog;
  TelcoSimulator simulator(config);
  TELCO_RETURN_NOT_OK(simulator.Run(&catalog));
  TELCO_RETURN_NOT_OK(SaveWarehouse(catalog, out));
  std::printf("wrote %zu tables (%zu rows) to %s\n", catalog.size(),
              catalog.TotalRows(), out.c_str());
  return Status::OK();
}

// Out-of-core flavour of `simulate`: chunks stream through a
// StreamingWarehouseSink directly into v3 .tbl files, so the resident
// set stays O(chunk) however large the scale factor. Ground truth is
// not recorded (it is O(customers)); use `evaluate` on the resulting
// warehouse for labelled runs.
Status RunDatagen(Flags& flags) {
  TELCO_ASSIGN_OR_RETURN(const std::string out, flags.Required("out"));
  SimConfig config;
  const std::string scale = flags.Get("scale-factor", "");
  if (!scale.empty()) {
    char* end = nullptr;
    config.scale_factor = std::strtod(scale.c_str(), &end);
    if (end == scale.c_str() || *end != '\0') {
      return Status::InvalidArgument(
          "--scale-factor expects a number, got '" + scale + "'");
    }
  }
  const std::string customers = flags.Get("customers", "");
  if (!customers.empty()) {
    const int64_t n = std::strtoll(customers.c_str(), nullptr, 10);
    if (n < 1) {
      return Status::InvalidArgument("--customers must be >= 1, got '" +
                                     customers + "'");
    }
    config.num_customers = static_cast<size_t>(n);
  }
  config.num_months = static_cast<int>(flags.GetInt("months", 9));
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 2015));
  const int threads = static_cast<int>(flags.GetInt("threads", 0));
  TELCO_RETURN_NOT_OK(flags.CheckAllUsed());

  std::unique_ptr<ThreadPool> owned_pool;
  EmitOptions emit;
  if (threads > 0) {
    owned_pool = std::make_unique<ThreadPool>(static_cast<size_t>(threads));
    emit.pool = owned_pool.get();
  }

  TelcoSimulator simulator(config);
  simulator.set_record_truth(false);
  StreamingWarehouseSink sink(out);
  Stopwatch watch;
  TELCO_RETURN_NOT_OK(simulator.Run(&sink, emit));
  const double seconds = watch.ElapsedSeconds();
  const uint64_t rows = sink.rows_written();
  std::printf(
      "streamed %zu tables (%llu rows, %zu customers) to %s in %.1fs "
      "(%.0f rows/s)\n",
      sink.tables_written(), static_cast<unsigned long long>(rows),
      simulator.config().num_customers, out.c_str(), seconds,
      seconds > 0.0 ? static_cast<double>(rows) / seconds : 0.0);
  return Status::OK();
}

Status LoadWarehouseFromFlag(Flags& flags, Catalog* catalog) {
  TELCO_ASSIGN_OR_RETURN(const std::string dir,
                         flags.Required("warehouse"));
  TELCO_RETURN_NOT_OK(LoadWarehouse(dir, catalog));
  std::fprintf(stderr, "loaded %zu tables from %s\n", catalog->size(),
               dir.c_str());
  return Status::OK();
}

PipelineOptions PipelineOptionsFromFlags(Flags& flags) {
  PipelineOptions options;
  options.model.rf.num_trees =
      static_cast<int>(flags.GetInt("trees", 120));
  options.training_months =
      static_cast<int>(flags.GetInt("training-months", 1));
  // 0 = the process-wide default pool (TELCO_THREADS or hardware
  // concurrency); results are identical for any value.
  options.num_threads = static_cast<int>(flags.GetInt("threads", 0));
  return options;
}

Status RunTrain(Flags& flags) {
  Catalog catalog;
  TELCO_RETURN_NOT_OK(LoadWarehouseFromFlag(flags, &catalog));
  TELCO_ASSIGN_OR_RETURN(const std::string model_path,
                         flags.Required("model"));
  const int month = static_cast<int>(flags.GetInt("month", 0));
  PipelineOptions options = PipelineOptionsFromFlags(flags);
  TELCO_RETURN_NOT_OK(flags.CheckAllUsed());
  if (month < 1) {
    return Status::InvalidArgument("--month must be >= 1");
  }

  ChurnPipeline pipeline(&catalog, options);
  // Train on the window of labelled months ending at `month` and export
  // in the serving format (model file + .features sidecar).
  TELCO_RETURN_NOT_OK(pipeline.TrainOnly(month));
  TELCO_RETURN_NOT_OK(pipeline.SaveModel(model_path));
  std::printf("trained %zu-feature model; model -> %s\n",
              pipeline.model_features().size(), model_path.c_str());
  return Status::OK();
}

Status RunPredict(Flags& flags) {
  Catalog catalog;
  TELCO_RETURN_NOT_OK(LoadWarehouseFromFlag(flags, &catalog));
  TELCO_ASSIGN_OR_RETURN(const std::string model_path,
                         flags.Required("model"));
  const int month = static_cast<int>(flags.GetInt("month", 0));
  const size_t top = static_cast<size_t>(flags.GetInt("top", 50));
  TELCO_RETURN_NOT_OK(flags.CheckAllUsed());
  if (month < 1) return Status::InvalidArgument("--month must be >= 1");

  TELCO_ASSIGN_OR_RETURN(const RandomForest forest,
                         LoadRandomForest(model_path));
  std::ifstream feature_file(model_path + ".features");
  if (!feature_file) {
    return Status::IoError("missing sidecar " + model_path + ".features");
  }
  std::vector<std::string> feature_names;
  std::string line;
  while (std::getline(feature_file, line)) {
    if (!line.empty()) feature_names.push_back(line);
  }

  WideTableBuilder builder(&catalog);
  TELCO_ASSIGN_OR_RETURN(const WideTable wide, builder.Build(month));
  TELCO_ASSIGN_OR_RETURN(
      const Dataset data,
      Dataset::FromTableUnlabeled(*wide.table, feature_names));
  TELCO_ASSIGN_OR_RETURN(const Column* imsi_col,
                         wide.table->GetColumn("imsi"));

  const std::vector<double> likelihoods =
      forest.PredictProbaBatch(data, &ThreadPool::Default());
  std::vector<std::pair<double, int64_t>> scored;
  scored.reserve(data.num_rows());
  for (size_t r = 0; r < data.num_rows(); ++r) {
    scored.emplace_back(likelihoods[r], imsi_col->GetInt64(r));
  }
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::printf("rank,imsi,likelihood\n");
  for (size_t i = 0; i < top && i < scored.size(); ++i) {
    std::printf("%zu,%lld,%.6f\n", i + 1,
                static_cast<long long>(scored[i].second),
                scored[i].first);
  }
  return Status::OK();
}

// Online scoring session. Default: NDJSON requests on stdin, responses
// on stdout (see src/serve/request_codec.h). With --tcp-port the same
// protocol is served over TCP to many concurrent clients, with named
// model routes behind a ModelRouter ({"model":"name"} in requests,
// {"cmd":"swap","name":"..."} to publish). The default route starts with
// --model published as snapshot v1; --models preloads named routes.
Status RunServe(Flags& flags) {
  TELCO_ASSIGN_OR_RETURN(const std::string model_path,
                         flags.Required("model"));
  StdioServerOptions options;
  options.executor.max_batch_size =
      static_cast<size_t>(flags.GetInt("batch", 64));
  options.executor.max_queue_depth =
      static_cast<size_t>(flags.GetInt("queue", 1024));
  options.window = static_cast<size_t>(flags.GetInt("window", 128));
  const int threads = static_cast<int>(flags.GetInt("threads", 0));
  const int64_t tcp_port = flags.GetInt("tcp-port", -1);
  const int64_t readers = flags.GetInt("readers", 2);
  const int64_t idle_timeout_s = flags.GetInt("idle-timeout-s", 300);
  const std::string named_models = flags.Get("models", "");
  const int64_t metrics_port = flags.GetInt("metrics-port", -1);
  const std::string stats_out = flags.Get("stats-out", "");
  const std::string stats_interval = flags.Get("stats-interval-s", "");
  const int64_t trace_sample = flags.GetInt("trace-sample", 0);
  const std::string trace_out = flags.Get("trace-out", "");
  TELCO_RETURN_NOT_OK(flags.CheckAllUsed());

  if (!stats_interval.empty() && stats_out.empty()) {
    return Status::InvalidArgument(
        "--stats-interval-s needs --stats-out PATH to write to");
  }
  double stats_interval_s = 10.0;
  if (!stats_interval.empty()) {
    stats_interval_s = std::strtod(stats_interval.c_str(), nullptr);
    if (!(stats_interval_s > 0.0)) {
      return Status::InvalidArgument("--stats-interval-s must be > 0");
    }
  }
  if (trace_sample < 0) {
    return Status::InvalidArgument("--trace-sample must be >= 0");
  }
  if (trace_sample > 0 && trace_out.empty()) {
    return Status::InvalidArgument(
        "--trace-sample needs --trace-out PATH (the trace recorder only "
        "runs when an export destination is set)");
  }
  if (metrics_port > 65535) {
    return Status::InvalidArgument("--metrics-port must be in [0, 65535]");
  }

  std::unique_ptr<ThreadPool> owned_pool;
  if (threads > 0) {
    owned_pool = std::make_unique<ThreadPool>(static_cast<size_t>(threads));
    options.executor.pool = owned_pool.get();
  }

  TELCO_ASSIGN_OR_RETURN(auto snapshot,
                         ModelSnapshot::LoadFromFile(model_path));

  // Observability sidecars, shared by both front-ends: the Prometheus
  // scrape port, the flight recorder, and the request-span trace.
  if (!trace_out.empty()) TraceRecorder::Global().Start();
  std::unique_ptr<MetricsHttpEndpoint> metrics_endpoint;
  if (metrics_port >= 0) {
    MetricsEndpointOptions endpoint_options;
    endpoint_options.port = static_cast<int>(metrics_port);
    metrics_endpoint =
        std::make_unique<MetricsHttpEndpoint>(endpoint_options);
    TELCO_RETURN_NOT_OK(metrics_endpoint->Start());
  }
  std::unique_ptr<FlightRecorder> flight_recorder;
  if (!stats_out.empty()) {
    FlightRecorderOptions recorder_options;
    recorder_options.path = stats_out;
    recorder_options.interval_s = stats_interval_s;
    flight_recorder = std::make_unique<FlightRecorder>(recorder_options);
    TELCO_RETURN_NOT_OK(flight_recorder->Start());
    std::fprintf(stderr, "flight recorder -> %s every %gs\n",
                 stats_out.c_str(), stats_interval_s);
  }
  const auto finish = [&](Status status) {
    if (flight_recorder != nullptr) flight_recorder->Stop();
    if (metrics_endpoint != nullptr) metrics_endpoint->Stop();
    if (!trace_out.empty()) {
      TraceRecorder::Global().Stop();
      const Status written = WriteFileAtomic(
          trace_out, TraceRecorder::Global().ExportJson());
      if (written.ok()) {
        std::fprintf(stderr, "trace -> %s\n", trace_out.c_str());
      } else if (status.ok()) {
        status = written;
      }
    }
    return status;
  };

  if (tcp_port < 0) {
    if (!named_models.empty()) {
      return Status::InvalidArgument(
          "--models needs the multi-model TCP front-end (--tcp-port)");
    }
    SnapshotRegistry registry;
    registry.Publish(std::move(snapshot));
    std::fprintf(stderr,
                 "serving %s (snapshot v1, batch %zu, queue %zu); "
                 "NDJSON requests on stdin\n",
                 model_path.c_str(), options.executor.max_batch_size,
                 options.executor.max_queue_depth);
    options.trace_sample = static_cast<uint64_t>(trace_sample);
    StdioScoringServer server(&registry, options);
    return finish(server.Run(std::cin, stdout));
  }

  if (tcp_port > 65535) {
    return Status::InvalidArgument("--tcp-port must be in [0, 65535]");
  }
  if (readers < 1) {
    return Status::InvalidArgument("--readers must be >= 1");
  }
  ModelRouterOptions router_options;
  router_options.executor = options.executor;
  ModelRouter router(router_options);
  router.Publish("", std::move(snapshot));
  if (!named_models.empty()) {
    // --models segment-a=/path/a.rf,segment-b=/path/b.rf
    for (const std::string& entry : Split(named_models, ',')) {
      const size_t eq = entry.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == entry.size()) {
        return Status::InvalidArgument(
            "--models expects name=path[,name=path...], got '" +
            entry + "'");
      }
      const std::string name = entry.substr(0, eq);
      const std::string path = entry.substr(eq + 1);
      TELCO_ASSIGN_OR_RETURN(auto named, ModelSnapshot::LoadFromFile(path));
      router.Publish(name, std::move(named));
      std::fprintf(stderr, "published model '%s' from %s\n", name.c_str(),
                   path.c_str());
    }
  }

  // Block the termination signals before Start so every server thread
  // inherits the mask; sigwait below is then the only consumer.
  sigset_t term_signals;
  sigemptyset(&term_signals);
  sigaddset(&term_signals, SIGINT);
  sigaddset(&term_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &term_signals, nullptr);

  TcpServerOptions tcp;
  tcp.port = static_cast<int>(tcp_port);
  tcp.readers = static_cast<size_t>(readers);
  tcp.idle_timeout_s = static_cast<int>(idle_timeout_s);
  tcp.trace_sample = static_cast<uint64_t>(trace_sample);
  TcpScoringServer server(&router, tcp);
  TELCO_RETURN_NOT_OK(server.Start());
  std::fprintf(stderr,
               "serving %s on 127.0.0.1:%d (%lld reader(s), batch %zu, "
               "queue %zu); Ctrl-C to stop\n",
               model_path.c_str(), server.port(),
               static_cast<long long>(readers),
               options.executor.max_batch_size,
               options.executor.max_queue_depth);
  int signal_number = 0;
  sigwait(&term_signals, &signal_number);
  std::fprintf(stderr, "caught signal %d; shutting down\n", signal_number);
  server.Shutdown();
  return finish(Status::OK());
}

// Emits a deterministic NDJSON score-request stream for one month's
// customers — the replay-harness companion of `serve`.
Status RunRequests(Flags& flags) {
  Catalog catalog;
  TELCO_RETURN_NOT_OK(LoadWarehouseFromFlag(flags, &catalog));
  TELCO_ASSIGN_OR_RETURN(const std::string model_path,
                         flags.Required("model"));
  const int month = static_cast<int>(flags.GetInt("month", 0));
  const size_t limit = static_cast<size_t>(flags.GetInt("limit", 0));
  TELCO_RETURN_NOT_OK(flags.CheckAllUsed());
  if (month < 1) return Status::InvalidArgument("--month must be >= 1");

  std::ifstream feature_file(model_path + ".features");
  if (!feature_file) {
    return Status::IoError("missing sidecar " + model_path + ".features");
  }
  std::vector<std::string> feature_names;
  std::string line;
  while (std::getline(feature_file, line)) {
    if (!line.empty()) feature_names.push_back(line);
  }

  WideTableBuilder builder(&catalog);
  TELCO_ASSIGN_OR_RETURN(const WideTable wide, builder.Build(month));
  TELCO_ASSIGN_OR_RETURN(
      const Dataset data,
      Dataset::FromTableUnlabeled(*wide.table, feature_names));
  TELCO_ASSIGN_OR_RETURN(const Column* imsi_col,
                         wide.table->GetColumn("imsi"));

  const size_t rows =
      limit == 0 ? data.num_rows() : std::min(limit, data.num_rows());
  for (size_t r = 0; r < rows; ++r) {
    ScoreRequest request;
    request.id = r + 1;
    request.imsi = imsi_col->GetInt64(r);
    const auto row = data.Row(r);
    request.features.assign(row.begin(), row.end());
    const std::string json = FormatScoreRequest(request);
    std::printf("%s\n", json.c_str());
  }
  return Status::OK();
}

Status RunEvaluate(Flags& flags) {
  // Parse every flag (and start the trace) before the warehouse load so
  // the trace and report cover storage I/O too.
  TELCO_ASSIGN_OR_RETURN(const std::string warehouse,
                         flags.Required("warehouse"));
  const int month = static_cast<int>(flags.GetInt("month", 0));
  PipelineOptions options = PipelineOptionsFromFlags(flags);
  const size_t u = static_cast<size_t>(flags.GetInt("u", 250));
  const bool print_timings = flags.GetBool("timings");
  const TelemetryFlags telemetry = TelemetryFlagsFrom(flags);
  TELCO_RETURN_NOT_OK(flags.CheckAllUsed());
  if (month < 2) return Status::InvalidArgument("--month must be >= 2");

  Catalog catalog;
  TELCO_RETURN_NOT_OK(LoadWarehouse(warehouse, &catalog));
  std::fprintf(stderr, "loaded %zu tables from %s\n", catalog.size(),
               warehouse.c_str());

  ChurnPipeline pipeline(&catalog, options);
  TELCO_ASSIGN_OR_RETURN(const RankingMetrics metrics,
                         pipeline.Evaluate(month, u));
  std::printf("%s\n", metrics.ToString().c_str());
  if (print_timings) {
    std::printf("stage timings (%zu threads):\n%s\n",
                pipeline.pool()->num_threads(),
                pipeline.timings().ToString().c_str());
  }
  return WriteTelemetryArtifacts(
      telemetry, "evaluate",
      {{"warehouse", warehouse},
       {"month", StrFormat("%d", month)},
       {"training-months", StrFormat("%d", options.training_months)},
       {"trees", StrFormat("%d", options.model.rf.num_trees)},
       {"u", StrFormat("%zu", u)}},
      &pipeline.timings(), &metrics);
}

// Shared driver of `run` and `resume`: a checkpointed end-to-end
// evaluation. The checkpoint opens before the warehouse loads so a crash
// during warehouse verification still leaves a resumable CONFIG.
Status RunCheckpointed(const std::string& warehouse,
                       const std::string& checkpoint_dir, int month,
                       size_t u, int training_months, int trees,
                       int threads, const std::string& command,
                       const TelemetryFlags& telemetry) {
  if (month < 2) return Status::InvalidArgument("--month must be >= 2");
  // The fingerprint excludes --threads: results are bit-identical for any
  // thread count, so resuming with a different one is safe.
  const std::string config = StrFormat(
      "month=%d\ntraining-months=%d\ntrees=%d\nu=%zu\nwarehouse=%s\n",
      month, training_months, trees, u, warehouse.c_str());
  TELCO_ASSIGN_OR_RETURN(const auto checkpoint,
                         PipelineCheckpoint::Open(checkpoint_dir, config));
  Catalog catalog;
  TELCO_RETURN_NOT_OK(LoadWarehouse(warehouse, &catalog));
  std::fprintf(stderr, "loaded %zu tables from %s\n", catalog.size(),
               warehouse.c_str());

  PipelineOptions options;
  options.model.rf.num_trees = trees;
  options.training_months = training_months;
  options.num_threads = threads;
  options.checkpoint = checkpoint.get();
  ChurnPipeline pipeline(&catalog, options);
  TELCO_ASSIGN_OR_RETURN(const ChurnPrediction prediction,
                         pipeline.TrainAndPredict(month));
  const RankingMetrics metrics =
      EvaluateRanking(prediction.ToScoredInstances(), u);
  std::printf("%s\n", metrics.ToString().c_str());
  return WriteTelemetryArtifacts(
      telemetry, command,
      {{"warehouse", warehouse},
       {"checkpoint-dir", checkpoint_dir},
       {"month", StrFormat("%d", month)},
       {"training-months", StrFormat("%d", training_months)},
       {"trees", StrFormat("%d", trees)},
       {"u", StrFormat("%zu", u)}},
      &pipeline.timings(), &metrics);
}

Status RunRun(Flags& flags) {
  TELCO_ASSIGN_OR_RETURN(const std::string warehouse,
                         flags.Required("warehouse"));
  TELCO_ASSIGN_OR_RETURN(const std::string dir,
                         flags.Required("checkpoint-dir"));
  const int month = static_cast<int>(flags.GetInt("month", 0));
  const size_t u = static_cast<size_t>(flags.GetInt("u", 250));
  const int training_months =
      static_cast<int>(flags.GetInt("training-months", 1));
  const int trees = static_cast<int>(flags.GetInt("trees", 120));
  const int threads = static_cast<int>(flags.GetInt("threads", 0));
  const TelemetryFlags telemetry = TelemetryFlagsFrom(flags);
  TELCO_RETURN_NOT_OK(flags.CheckAllUsed());
  return RunCheckpointed(warehouse, dir, month, u, training_months, trees,
                         threads, "run", telemetry);
}

Status RunResume(Flags& flags) {
  TELCO_ASSIGN_OR_RETURN(const std::string dir,
                         flags.Required("checkpoint-dir"));
  const int threads = static_cast<int>(flags.GetInt("threads", 0));
  const TelemetryFlags telemetry = TelemetryFlagsFrom(flags);
  TELCO_RETURN_NOT_OK(flags.CheckAllUsed());
  TELCO_ASSIGN_OR_RETURN(const std::string config,
                         PipelineCheckpoint::ReadConfig(dir));
  std::map<std::string, std::string> kv;
  for (const auto& line : Split(config, '\n')) {
    if (line.empty()) continue;
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("malformed checkpoint CONFIG line '" +
                                     line + "'");
    }
    kv[line.substr(0, eq)] = line.substr(eq + 1);
  }
  for (const char* key : {"warehouse", "month", "training-months", "trees",
                          "u"}) {
    if (!kv.count(key)) {
      return Status::InvalidArgument(
          std::string("checkpoint CONFIG is missing '") + key + "'");
    }
  }
  return RunCheckpointed(kv["warehouse"], dir,
                         std::atoi(kv["month"].c_str()),
                         static_cast<size_t>(std::atoll(kv["u"].c_str())),
                         std::atoi(kv["training-months"].c_str()),
                         std::atoi(kv["trees"].c_str()), threads, "resume",
                         telemetry);
}

Status RunMetrics(Flags& flags) {
  TELCO_ASSIGN_OR_RETURN(const std::string path, flags.Required("report"));
  TELCO_RETURN_NOT_OK(flags.CheckAllUsed());
  TELCO_ASSIGN_OR_RETURN(const std::string text, ReadFileToString(path));
  TELCO_ASSIGN_OR_RETURN(const RunReport report,
                         RunReport::FromJson(text));
  std::printf("%s", report.ToPrettyString().c_str());
  return Status::OK();
}

Status RunFaultSites(Flags& flags) {
  TELCO_RETURN_NOT_OK(flags.CheckAllUsed());
  for (const std::string& site : KnownFaultSites()) {
    std::printf("%s\n", site.c_str());
  }
  return Status::OK();
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: telcochurn "
      "<simulate|datagen|train|predict|serve|requests|evaluate|run|resume|"
      "metrics|fault-sites> [flags]\n"
      "  simulate --out DIR [--customers N] [--months M] [--seed S]\n"
      "  datagen  --out DIR [--scale-factor X | --customers N]\n"
      "           [--months M] [--seed S] [--threads N]\n"
      "           (streams a v3 warehouse to disk in O(chunk) memory;\n"
      "           SF 1.0 = the paper's ~2.1M customers)\n"
      "  train    --warehouse DIR --month M --model PATH\n"
      "           [--training-months K] [--trees T]\n"
      "  predict  --warehouse DIR --model PATH --month M [--top U]\n"
      "  serve    --model PATH [--batch N] [--queue N] [--window N]\n"
      "           [--threads N]\n"
      "           (NDJSON on stdin/stdout; see README)\n"
      "           [--tcp-port P] [--readers N]\n"
      "           [--models n=PATH,...]  (named routes)\n"
      "           [--idle-timeout-s S]  (0 disables the idle reaper)\n"
      "           (with --tcp-port: epoll TCP front-end with named-model\n"
      "           routing; port 0 picks an ephemeral port)\n"
      "           [--metrics-port P]  (Prometheus text scrape endpoint)\n"
      "           [--stats-out PATH [--stats-interval-s S]]  (flight\n"
      "           recorder: interval-delta metric snapshots as JSONL)\n"
      "           [--trace-out PATH [--trace-sample N]]  (request-scoped\n"
      "           trace spans for every Nth score request)\n"
      "  requests --warehouse DIR --model PATH --month M [--limit N]\n"
      "  evaluate --warehouse DIR --month M [--u U]\n"
      "           [--training-months K] [--trees T] [--threads N]\n"
      "           [--timings] [--trace-out PATH] [--report-out PATH]\n"
      "  run      --warehouse DIR --month M --checkpoint-dir DIR [--u U]\n"
      "           [--training-months K] [--trees T] [--threads N]\n"
      "           [--trace-out PATH] [--report-out PATH]\n"
      "  resume   --checkpoint-dir DIR [--threads N]\n"
      "           [--trace-out PATH] [--report-out PATH]\n"
      "  metrics  --report PATH\n"
      "  fault-sites\n"
      "TELCO_THREADS overrides the default worker-pool size.\n"
      "TELCO_LOG_LEVEL=debug|info|warning|error sets log verbosity.\n"
      "TELCO_FAULT=site:n[:error],... injects a crash (or, with :error, a\n"
      "transient I/O error) at the n-th hit of a fault site.\n"
      "--trace-out writes Chrome trace-event JSON (load in Perfetto);\n"
      "--report-out writes a structured run report (see `metrics`).\n");
  return 2;
}

int Main(int argc, char** argv) {
  Logger::InitFromEnv(LogLevel::kWarning);
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  Flags flags(argc, argv, 2);
  if (!flags.error().empty()) {
    std::fprintf(stderr, "error: %s\n", flags.error().c_str());
    return Usage();
  }
  Status st;
  if (command == "simulate") {
    st = RunSimulate(flags);
  } else if (command == "datagen") {
    st = RunDatagen(flags);
  } else if (command == "train") {
    st = RunTrain(flags);
  } else if (command == "predict") {
    st = RunPredict(flags);
  } else if (command == "serve") {
    st = RunServe(flags);
  } else if (command == "requests") {
    st = RunRequests(flags);
  } else if (command == "evaluate") {
    st = RunEvaluate(flags);
  } else if (command == "run") {
    st = RunRun(flags);
  } else if (command == "resume") {
    st = RunResume(flags);
  } else if (command == "metrics") {
    st = RunMetrics(flags);
  } else if (command == "fault-sites") {
    st = RunFaultSites(flags);
  } else {
    return Usage();
  }
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace telco

int main(int argc, char** argv) { return telco::Main(argc, argv); }
