#include "serve/model_snapshot.h"

#include <utility>

#include "common/string_util.h"
#include "common/telemetry/metrics.h"
#include "ml/serialize.h"
#include "storage/atomic_file.h"

namespace telco {

namespace {

Result<std::vector<std::string>> ReadFeatureSidecar(
    const std::string& model_path) {
  TELCO_ASSIGN_OR_RETURN(const std::string text,
                         ReadFileToString(model_path + ".features"));
  std::vector<std::string> names;
  std::string current;
  for (const char c : text) {
    if (c == '\n') {
      if (!current.empty()) names.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) names.push_back(current);
  if (names.empty()) {
    return Status::IoError("feature sidecar " + model_path +
                           ".features names no columns");
  }
  return names;
}

}  // namespace

ModelSnapshot::ModelSnapshot(RandomForest forest,
                             std::vector<std::string> feature_names,
                             std::string label, uint32_t fingerprint)
    : forest_(std::move(forest)),
      feature_names_(std::move(feature_names)),
      label_(std::move(label)),
      fingerprint_(fingerprint) {}

Result<std::shared_ptr<const ModelSnapshot>> ModelSnapshot::LoadFromFile(
    const std::string& model_path) {
  static const Counter loads =
      MetricsRegistry::Global().GetCounter("serve.snapshot.loads");
  static const Counter load_failures =
      MetricsRegistry::Global().GetCounter("serve.snapshot.load_failures");

  Result<RandomForest> forest = LoadRandomForest(model_path);
  if (!forest.ok()) {
    load_failures.Add();
    return forest.status();
  }
  Result<std::vector<std::string>> features = ReadFeatureSidecar(model_path);
  if (!features.ok()) {
    load_failures.Add();
    return features.status();
  }
  Result<std::shared_ptr<const ModelSnapshot>> snapshot =
      FromForest(std::move(forest).ValueOrDie(),
                 std::move(features).ValueOrDie(), model_path);
  if (snapshot.ok()) loads.Add();
  return snapshot;
}

Result<std::shared_ptr<const ModelSnapshot>> ModelSnapshot::FromForest(
    RandomForest forest, std::vector<std::string> feature_names,
    std::string label) {
  if (forest.num_trees() == 0 || forest.binned() == nullptr) {
    return Status::InvalidArgument(
        "a serving snapshot requires a fitted forest");
  }
  if (feature_names.empty()) {
    return Status::InvalidArgument(
        "a serving snapshot requires a feature schema");
  }
  if (forest.binned()->num_features() > feature_names.size()) {
    return Status::InvalidArgument(StrFormat(
        "the forest splits on feature %zu but the schema names only %zu "
        "columns",
        forest.binned()->num_features() - 1, feature_names.size()));
  }
  TELCO_ASSIGN_OR_RETURN(const uint32_t fingerprint, ForestChecksum(forest));
  return std::shared_ptr<const ModelSnapshot>(
      new ModelSnapshot(std::move(forest), std::move(feature_names),
                        std::move(label), fingerprint));
}

double ModelSnapshot::Score(std::span<const double> row) const {
  return forest_.PredictProba(row);
}

std::vector<double> ModelSnapshot::ScoreBatch(FeatureMatrix rows,
                                              ThreadPool* pool) const {
  return forest_.PredictProbaBatch(rows, pool);
}

std::vector<double> ModelSnapshot::ScoreBatch(const Dataset& rows,
                                              ThreadPool* pool) const {
  return ScoreBatch(rows.Matrix(), pool);
}

}  // namespace telco
