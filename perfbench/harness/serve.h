// The serve side of the benchmark: the serve_open_loop workload, the
// short serve probe that follows each batch workload, and the open-loop
// load generator process that drives the TCP front-end.

#ifndef PERFBENCH_HARNESS_SERVE_H_
#define PERFBENCH_HARNESS_SERVE_H_

#include <memory>

#include "common/result.h"
#include "ml/dataset.h"
#include "serve/model_snapshot.h"
#include "util.h"

namespace perfbench {

/// Set-up of serve_open_loop: warehouse, wide tables, two 500-tree
/// forests saved as serving model files, and the request rows.
telco::Status SetupServe(const Options& options, Tracer* tracer,
                         Results* results);

/// Timed phase of serve_open_loop: the open-loop ladder over loopback
/// TCP, with the second model published halfway through the `high` phase.
telco::Status RunServe(const Options& options, Tracer* tracer,
                       Results* results);

/// The serve probe a batch workload runs on the model it just trained:
/// the same ladder with shorter phases and no swap.
telco::Status ServeProbe(const Options& options,
                         std::shared_ptr<const telco::ModelSnapshot> model,
                         const telco::Dataset& rows, Tracer* tracer,
                         Results* results);

/// The `loadgen` subcommand: one process and one thread that sends
/// single-row score requests on the plan's schedule and reads responses.
int RunLoadGenerator(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_SERVE_H_
