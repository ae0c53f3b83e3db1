// Random Forest (paper Section 4.2): bagging over Gini CART trees with a
// sqrt(N) random feature subspace per node. Prediction is the average of
// the per-tree class distributions (Eq. 4); feature importance is the
// accumulated Gini improvement (Eq. 7).

#ifndef TELCO_ML_RANDOM_FOREST_H_
#define TELCO_ML_RANDOM_FOREST_H_

#include <memory>
#include <vector>

#include "ml/binned_forest.h"
#include "ml/classifier.h"
#include "ml/decision_tree.h"

namespace telco {

class ThreadPool;

/// Hyper-parameters; paper defaults are 500 trees and min split 100.
struct RandomForestOptions {
  int num_trees = 500;
  /// 0 = sqrt(num_features), the paper's subspace size.
  size_t max_features = 0;
  size_t min_samples_split = 100;
  size_t min_samples_leaf = 1;
  int max_depth = 32;
  /// Bootstrap sample size as a fraction of the training set.
  double bootstrap_fraction = 1.0;
  uint64_t seed = 7;
  /// Fit trees on a thread pool (per-tree RNG streams keyed by
  /// HashCombine64(seed, tree), so results are identical to serial).
  bool parallel = true;
  /// Pool used when parallel (null = the process-wide default pool).
  ThreadPool* pool = nullptr;
};

/// \brief Random-forest classifier (binary and multi-class).
class RandomForest final : public Classifier {
 public:
  explicit RandomForest(RandomForestOptions options = {});

  Status Fit(const Dataset& data) override;
  double PredictProba(std::span<const double> row) const override;
  /// Batch scoring through the compiled binned engine; bit-identical to
  /// the per-row pointer walk, much faster.
  std::vector<double> PredictProbaBatch(FeatureMatrix rows,
                                        ThreadPool* pool) const override;
  using Classifier::PredictProbaBatch;
  std::vector<double> PredictClassProba(
      std::span<const double> row) const override;
  std::string name() const override { return "RandomForest"; }

  /// Per-feature Gini importance, normalised to sum to 1 (Table 4).
  const std::vector<double>& FeatureImportance() const { return importance_; }

  /// (feature index, importance) sorted by descending importance.
  std::vector<std::pair<size_t, double>> RankedImportance() const;

  int num_classes() const { return num_classes_; }
  size_t num_trees() const { return trees_.size(); }

  /// Serialization access (ml/serialize).
  const std::vector<ClassificationTree>& trees() const { return trees_; }
  /// The compiled engine (null only before a successful fit).
  const BinnedForest* binned() const { return binned_.get(); }
  /// Rebuilds a fitted forest from deserialized parts.
  static Result<RandomForest> FromParts(RandomForestOptions options,
                                        int num_classes,
                                        std::vector<ClassificationTree> trees,
                                        std::vector<double> importance);

 private:
  RandomForestOptions options_;
  std::vector<ClassificationTree> trees_;
  std::vector<double> importance_;
  // Shared so copies of a fitted forest reuse one compiled arena.
  std::shared_ptr<const BinnedForest> binned_;
  int num_classes_ = 2;
};

}  // namespace telco

#endif  // TELCO_ML_RANDOM_FOREST_H_
