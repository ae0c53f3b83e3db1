// Classifier: the common interface of the paper's comparator models
// (Section 5.8): Random Forest, GBDT, L2 logistic regression (LIBLINEAR)
// and factorization machines (LIBFM).

#ifndef TELCO_ML_CLASSIFIER_H_
#define TELCO_ML_CLASSIFIER_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "ml/dataset.h"
#include "ml/feature_matrix.h"
#include "ml/metrics.h"

namespace telco {

class ThreadPool;

/// \brief Abstract probabilistic classifier.
///
/// Binary models implement PredictProba (probability of class 1, the
/// churner likelihood ranked by the pipeline); multi-class models
/// additionally override PredictClassProba.
class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Trains on the dataset (labels in [0, NumClasses), instance weights
  /// honoured where the algorithm supports them).
  virtual Status Fit(const Dataset& data) = 0;

  /// Probability that `row` belongs to class 1.
  virtual double PredictProba(std::span<const double> row) const = 0;

  /// THE batch entry point: class-1 probabilities of every row of
  /// `rows`. Rows are chunked across `pool` (null = serial); each row is
  /// scored entirely by one thread, so the result is bit-identical to
  /// the serial PredictProba loop for any thread count. Overrides (the
  /// tree ensembles route through the compiled binned engine) must
  /// preserve that bit-exactness.
  virtual std::vector<double> PredictProbaBatch(FeatureMatrix rows,
                                                ThreadPool* pool) const;

  /// Thin wrapper: scores the dataset's contiguous design matrix.
  std::vector<double> PredictProbaBatch(const Dataset& data,
                                        ThreadPool* pool) const {
    return PredictProbaBatch(data.Matrix(), pool);
  }

  /// Full class distribution; the default wraps the binary case.
  virtual std::vector<double> PredictClassProba(
      std::span<const double> row) const {
    const double p = PredictProba(row);
    return {1.0 - p, p};
  }

  /// Display name used by benchmark tables.
  virtual std::string name() const = 0;
};

/// \brief Scores every row of `data`, pairing the class-1 probability with
/// the true label — the input format of the Section 5.1 metrics. A thin
/// wrapper over PredictProbaBatch (null pool = serial).
std::vector<ScoredInstance> ScoreDataset(const Classifier& model,
                                         const Dataset& data,
                                         ThreadPool* pool = nullptr);

}  // namespace telco

#endif  // TELCO_ML_CLASSIFIER_H_
