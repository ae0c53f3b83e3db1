// The two batch workloads (monthly_batch, retrain), their set-ups, and
// the layer replays every traced run adds: each times the benchmark's
// own calls into one layer's public functions.

#ifndef PERFBENCH_HARNESS_BATCH_H_
#define PERFBENCH_HARNESS_BATCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "features/wide_table.h"
#include "ml/dataset.h"
#include "storage/catalog.h"
#include "util.h"

namespace perfbench {

/// Months of the generated warehouse: month 1 trains, month 2 is ranked,
/// month 3 only supplies month 2's churn labels.
inline constexpr int kMonths = 3;
inline constexpr int kTrainMonth = 1;
inline constexpr int kPredictMonth = 2;

/// One month's labelled design matrix and the imsi of every row.
struct LabelledMonth {
  telco::Dataset data{{}};
  std::vector<int64_t> imsis;
};

/// Wide-table rows joined with their churn labels; unlabelled rows drop.
telco::Result<LabelledMonth> JoinLabels(
    const telco::Table& wide, const std::vector<std::string>& columns,
    const std::unordered_map<int64_t, int>& labels);

/// Streams the warehouse of `options.seed` / `options.sf` into `dir`
/// through TelcoSimulator::Run(StreamingWarehouseSink*).
telco::Status GenerateWarehouse(const Options& options,
                                const std::string& dir, Tracer* tracer,
                                Results* results);

/// LoadWarehouse with its span and storage.load_* results.
telco::Result<std::unique_ptr<telco::Catalog>> LoadCatalog(
    const std::string& dir, Tracer* tracer, Results* results);

/// WideTableBuilder::Build of the train and predict months, recording
/// features.build_s.{first,next}_month and (traced) features.rss_mb.
telco::Status BuildWideTables(telco::WideTableBuilder* builder,
                              Tracer* tracer, Results* results,
                              telco::WideTable* train,
                              telco::WideTable* predict);

/// Set-ups (one per workload); each writes under options.work.
telco::Status SetupMonthlyBatch(const Options& options, Tracer* tracer,
                                Results* results);
telco::Status SetupRetrain(const Options& options, Tracer* tracer,
                           Results* results);

/// Timed phases of the batch workloads.
telco::Status RunMonthlyBatch(const Options& options, Tracer* tracer,
                              Results* results);
telco::Status RunRetrain(const Options& options, Tracer* tracer,
                         Results* results);

/// Fixed feature-shaped operator replay, graph and text replays over the
/// warehouse of options.work (query.*, graph.*, text.* results).
telco::Status RunLayerReplays(const Options& options, Tracer* tracer,
                              Results* results);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_BATCH_H_
