// Gradient boosted decision trees on the logistic loss (the paper's GBDT
// comparator, Section 5.8: 500 trees, learning rate 0.1). Each round fits
// a Newton regression tree to the loss gradients/hessians and shrinks its
// contribution by the learning rate.

#ifndef TELCO_ML_GBDT_H_
#define TELCO_ML_GBDT_H_

#include <memory>
#include <vector>

#include "ml/binned_forest.h"
#include "ml/classifier.h"
#include "ml/decision_tree.h"

namespace telco {

/// GBDT hyper-parameters (paper defaults in comments).
struct GbdtOptions {
  int num_trees = 500;       // paper fixes 500
  double learning_rate = 0.1;  // paper fixes 0.1
  int max_depth = 6;
  size_t min_samples_split = 100;
  size_t min_samples_leaf = 1;
  /// L2 regularisation on leaf values.
  double lambda = 1.0;
  /// Row subsampling per round (stochastic gradient boosting).
  double subsample = 1.0;
  uint64_t seed = 11;
};

/// \brief Binary GBDT classifier.
class Gbdt final : public Classifier {
 public:
  explicit Gbdt(GbdtOptions options = {});

  Status Fit(const Dataset& data) override;
  double PredictProba(std::span<const double> row) const override;
  /// Batch scoring through the compiled binned engine; bit-identical to
  /// the per-row pointer walk, much faster.
  std::vector<double> PredictProbaBatch(FeatureMatrix rows,
                                        ThreadPool* pool) const override;
  using Classifier::PredictProbaBatch;
  std::string name() const override { return "GBDT"; }

  size_t num_trees() const { return trees_.size(); }
  const std::vector<RegressionTree>& trees() const { return trees_; }
  double base_margin() const { return base_margin_; }
  /// The compiled engine (null only before a successful fit).
  const BinnedForest* binned() const { return binned_.get(); }

 private:
  double PredictMargin(std::span<const double> row) const;

  GbdtOptions options_;
  double base_margin_ = 0.0;
  std::vector<RegressionTree> trees_;
  // Shared so copies of a fitted model reuse one compiled arena.
  std::shared_ptr<const BinnedForest> binned_;
};

}  // namespace telco

#endif  // TELCO_ML_GBDT_H_
