// perfbench_harness: the compiled half of the repo benchmark. The
// orchestrator (perfbench/run.py) calls it once per phase:
//
//   perfbench_harness setup --workload W --seed N --sf X --work DIR
//       [--trace 0|1] [--trace-out FILE]
//     builds the workload's inputs under DIR and prints setup_s.
//   perfbench_harness run --workload W --seed N --sf X --work DIR
//       --seconds S [--trace 0|1] [--trace-out FILE] [--corrupt]
//     runs the timed phase on the set-up's inputs, checks its outputs and
//     prints its results; a traced run also replays each layer.
//   perfbench_harness loadgen --plan FILE --out FILE --port P
//     the open-loop load generator the serve phases spawn.
//
// Every result is one `key=value` line on stdout.

#include <cstdio>

#include "batch.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "serve.h"
#include "util.h"

namespace perfbench {
namespace {

telco::Status Dispatch(const Options& options, Tracer* tracer,
                       Results* results) {
  const bool setup = options.command == "setup";
  if (options.workload == "monthly_batch") {
    return setup ? SetupMonthlyBatch(options, tracer, results)
                 : RunMonthlyBatch(options, tracer, results);
  }
  if (options.workload == "retrain") {
    return setup ? SetupRetrain(options, tracer, results)
                 : RunRetrain(options, tracer, results);
  }
  if (options.workload == "serve_open_loop") {
    return setup ? SetupServe(options, tracer, results)
                 : RunServe(options, tracer, results);
  }
  return telco::Status::InvalidArgument("unknown workload '" +
                                        options.workload + "'");
}

int Main(int argc, char** argv) {
  telco::Logger::InitFromEnv(telco::LogLevel::kWarning);
  const telco::Result<Options> parsed = ParseOptions(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const Options& options = *parsed;
  if (options.command == "loadgen") return RunLoadGenerator(options);
  if (options.command != "setup" && options.command != "run") {
    std::fprintf(stderr, "unknown subcommand '%s'\n", options.command.c_str());
    return 2;
  }

  Tracer tracer(options.trace);
  Results results;
  results.Set("threads",
              static_cast<double>(telco::ThreadPool::DefaultNumThreads()));
  const double start = NowSeconds();
  telco::Status status = Dispatch(options, &tracer, &results);
  if (options.command == "setup") {
    results.Set("setup_s", NowSeconds() - start);
  } else if (status.ok() && options.trace) {
    ScopedSpan span(&tracer, "replay");
    status = RunLayerReplays(options, &tracer, &results);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "%s %s failed: %s\n", options.command.c_str(),
                 options.workload.c_str(), status.ToString().c_str());
    return 1;
  }
  if (options.trace && !options.trace_out.empty()) {
    const telco::Status wrote = tracer.WriteJson(options.trace_out);
    if (!wrote.ok()) {
      std::fprintf(stderr, "%s\n", wrote.ToString().c_str());
      return 1;
    }
  }
  results.Print();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
