// CART decision trees with histogram split search.
//
// ClassificationTree implements the paper's Section 4.2 tree: at each
// node it draws a random subspace of sqrt(N) features, scans all split
// points per feature and takes the split maximising the Gini improvement
// I = G(parent) - q G(left) - (1-q) G(right) (Eqs. 5-6); splitting stops
// when a node holds fewer than min_samples_split instances (the paper
// fixes 100 "to avoid over-fitting").
//
// RegressionTree is the GBDT base learner: second-order (Newton) split
// gain on per-instance gradients/hessians with leaf values
// -sum(g)/(sum(h) + lambda).
//
// Both operate on a BinnedDataset (quantile codes) for O(bins) split
// scans, while prediction uses raw double rows against stored thresholds.

#ifndef TELCO_ML_DECISION_TREE_H_
#define TELCO_ML_DECISION_TREE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "ml/binning.h"
#include "ml/dataset.h"

namespace telco {

/// Knobs shared by both tree kinds.
struct TreeOptions {
  /// Depth cap (root = depth 0).
  int max_depth = 32;
  /// A node with fewer instances than this becomes a leaf (paper: 100).
  size_t min_samples_split = 100;
  /// Each child must keep at least this many instances.
  size_t min_samples_leaf = 1;
  /// Features sampled per node; 0 = all (the forest passes sqrt(N)).
  size_t max_features = 0;
  /// Minimum Gini/gain improvement to accept a split.
  double min_improvement = 1e-12;
};

/// \brief A fitted classification tree (leaf = class distribution).
class ClassificationTree {
 public:
  /// Fits on the rows listed in `indices` (bootstrap duplicates allowed).
  ///
  /// `importance`, when non-null, accumulates per-feature Gini importance:
  /// each accepted split adds its improvement weighted by the node's
  /// weight fraction (Eq. 7 with the standard node-weighting).
  Status Fit(const BinnedDataset& binned, const Dataset& data,
             const std::vector<size_t>& indices, int num_classes,
             const TreeOptions& options, Rng* rng,
             std::vector<double>* importance);

  /// Class distribution at the leaf reached by `row`.
  std::span<const double> PredictProba(std::span<const double> row) const;

  size_t num_nodes() const { return nodes_.size(); }
  int num_classes() const { return num_classes_; }

  /// Flat node mirror used by model serialization (ml/serialize).
  struct SerializedNode {
    int32_t feature = -1;  // -1 = leaf
    double threshold = 0.0;
    int32_t left = -1;
    int32_t right = -1;
    int32_t proba_offset = -1;
  };

  /// Dumps the fitted tree into flat arrays.
  void Export(std::vector<SerializedNode>* nodes,
              std::vector<double>* leaf_proba) const;

  /// Reconstructs a tree from flat arrays; validates topology.
  static Result<ClassificationTree> Import(
      const std::vector<SerializedNode>& nodes,
      std::vector<double> leaf_proba, int num_classes);

 private:
  struct Node {
    int32_t feature = -1;  // -1 = leaf
    double threshold = 0.0;
    int32_t left = -1;
    int32_t right = -1;
    int32_t proba_offset = -1;  // leaf: offset into leaf_proba_
  };

  size_t BuildNode(const BinnedDataset& binned, const Dataset& data,
                   std::vector<size_t>& node_indices, int depth,
                   const TreeOptions& options, Rng* rng,
                   std::vector<double>* importance, double total_weight);

  std::vector<Node> nodes_;
  std::vector<double> leaf_proba_;
  int num_classes_ = 2;
};

/// \brief A fitted regression tree over gradient/hessian targets.
class RegressionTree {
 public:
  /// Fits a Newton tree: `grad` and `hess` are per-row (full dataset
  /// indexing); `indices` selects the training rows.
  Status Fit(const BinnedDataset& binned, std::span<const double> grad,
             std::span<const double> hess,
             const std::vector<size_t>& indices, const TreeOptions& options,
             double lambda, Rng* rng);

  /// Leaf value reached by `row`.
  double Predict(std::span<const double> row) const;

  size_t num_nodes() const { return nodes_.size(); }

  /// Flat node mirror (leaf: feature == -1, `value` is the leaf value) —
  /// the input of the forest engine compiler.
  struct SerializedNode {
    int32_t feature = -1;
    double threshold = 0.0;
    int32_t left = -1;
    int32_t right = -1;
    double value = 0.0;
  };

  /// Dumps the fitted tree into flat arrays.
  void Export(std::vector<SerializedNode>* nodes) const;

 private:
  struct Node {
    int32_t feature = -1;
    double threshold = 0.0;
    int32_t left = -1;
    int32_t right = -1;
    double value = 0.0;
  };

  size_t BuildNode(const BinnedDataset& binned, std::span<const double> grad,
                   std::span<const double> hess,
                   std::vector<size_t>& node_indices, int depth,
                   const TreeOptions& options, double lambda, Rng* rng);

  std::vector<Node> nodes_;
};

}  // namespace telco

#endif  // TELCO_ML_DECISION_TREE_H_
