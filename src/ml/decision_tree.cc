#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"

namespace telco {

namespace {

// Gini index of a weighted class histogram (paper Eq. 6 generalised to C
// classes): G = 1 - sum_c p_c^2.
double GiniIndex(const std::vector<double>& class_weights, double total) {
  if (total <= 0.0) return 0.0;
  double sum_sq = 0.0;
  for (double w : class_weights) {
    const double p = w / total;
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

// Samples `k` distinct feature indices out of `n` (or all when k >= n).
std::vector<size_t> SampleFeatures(size_t n, size_t k, Rng* rng) {
  if (k == 0 || k >= n) {
    std::vector<size_t> all(n);
    std::iota(all.begin(), all.end(), 0);
    return all;
  }
  return rng->SampleWithoutReplacement(n, k);
}

}  // namespace

// ------------------------------------------------------- ClassificationTree

Status ClassificationTree::Fit(const BinnedDataset& binned,
                               const Dataset& data,
                               const std::vector<size_t>& indices,
                               int num_classes, const TreeOptions& options,
                               Rng* rng, std::vector<double>* importance) {
  if (num_classes < 2) {
    return Status::InvalidArgument("need at least 2 classes");
  }
  if (indices.empty()) {
    return Status::InvalidArgument("cannot fit a tree on zero rows");
  }
  if (binned.num_rows != data.num_rows()) {
    return Status::InvalidArgument("binned/raw row count mismatch");
  }
  num_classes_ = num_classes;
  nodes_.clear();
  leaf_proba_.clear();
  double total_weight = 0.0;
  for (size_t idx : indices) total_weight += data.weight(idx);
  if (total_weight <= 0.0) {
    return Status::InvalidArgument("total instance weight is zero");
  }
  std::vector<size_t> work(indices);
  BuildNode(binned, data, work, 0, options, rng, importance, total_weight);
  return Status::OK();
}

size_t ClassificationTree::BuildNode(
    const BinnedDataset& binned, const Dataset& data,
    std::vector<size_t>& node_indices, int depth, const TreeOptions& options,
    Rng* rng, std::vector<double>* importance, double total_weight) {
  const size_t node_id = nodes_.size();
  nodes_.emplace_back();

  // Node class histogram.
  std::vector<double> class_weights(num_classes_, 0.0);
  double node_weight = 0.0;
  for (size_t idx : node_indices) {
    class_weights[data.label(idx)] += data.weight(idx);
    node_weight += data.weight(idx);
  }
  const double parent_gini = GiniIndex(class_weights, node_weight);

  auto make_leaf = [&] {
    Node& node = nodes_[node_id];
    node.proba_offset = static_cast<int32_t>(leaf_proba_.size());
    for (int c = 0; c < num_classes_; ++c) {
      leaf_proba_.push_back(node_weight > 0.0
                                ? class_weights[c] / node_weight
                                : 1.0 / num_classes_);
    }
    return node_id;
  };

  const bool pure = parent_gini <= 0.0;
  if (pure || depth >= options.max_depth ||
      node_indices.size() < options.min_samples_split) {
    return make_leaf();
  }

  // Split search over a random feature subspace.
  const std::vector<size_t> features =
      SampleFeatures(binned.num_features, options.max_features, rng);

  double best_improvement = options.min_improvement;
  int best_feature = -1;
  int best_bin = -1;

  // Per-(bin, class) weight histogram, plus per-bin instance counts for
  // the min_samples_leaf constraint.
  std::vector<double> hist;
  std::vector<size_t> bin_counts;
  for (size_t j : features) {
    const int num_bins = binned.binner->NumBins(j);
    if (num_bins < 2) continue;
    hist.assign(static_cast<size_t>(num_bins) * num_classes_, 0.0);
    bin_counts.assign(num_bins, 0);
    for (size_t idx : node_indices) {
      const uint8_t code = binned.Code(idx, j);
      hist[static_cast<size_t>(code) * num_classes_ + data.label(idx)] +=
          data.weight(idx);
      ++bin_counts[code];
    }
    // Prefix scan: cutting after bin b sends bins [0, b] left.
    std::vector<double> left(num_classes_, 0.0);
    double left_weight = 0.0;
    size_t left_count = 0;
    for (int b = 0; b + 1 < num_bins; ++b) {
      for (int c = 0; c < num_classes_; ++c) {
        left[c] += hist[static_cast<size_t>(b) * num_classes_ + c];
      }
      left_count += bin_counts[b];
      left_weight = std::accumulate(left.begin(), left.end(), 0.0);
      const size_t right_count = node_indices.size() - left_count;
      if (left_count < options.min_samples_leaf ||
          right_count < options.min_samples_leaf) {
        continue;
      }
      if (left_weight <= 0.0 || left_weight >= node_weight) continue;
      std::vector<double> right(num_classes_);
      for (int c = 0; c < num_classes_; ++c) {
        right[c] = class_weights[c] - left[c];
      }
      const double right_weight = node_weight - left_weight;
      const double q = left_weight / node_weight;
      const double improvement = parent_gini -
                                 q * GiniIndex(left, left_weight) -
                                 (1.0 - q) * GiniIndex(right, right_weight);
      if (improvement > best_improvement) {
        best_improvement = improvement;
        best_feature = static_cast<int>(j);
        best_bin = b;
      }
    }
  }

  if (best_feature < 0) return make_leaf();

  if (importance != nullptr) {
    TELCO_DCHECK(importance->size() == binned.num_features);
    // Eq. (7) summed with the standard node-weight fraction so shallow,
    // high-coverage splits dominate deep noise splits.
    (*importance)[best_feature] +=
        best_improvement * (node_weight / total_weight);
  }

  // Partition the node rows in place.
  std::vector<size_t> left_rows;
  std::vector<size_t> right_rows;
  left_rows.reserve(node_indices.size());
  right_rows.reserve(node_indices.size());
  for (size_t idx : node_indices) {
    if (binned.Code(idx, best_feature) <= best_bin) {
      left_rows.push_back(idx);
    } else {
      right_rows.push_back(idx);
    }
  }
  node_indices.clear();
  node_indices.shrink_to_fit();

  const double threshold =
      binned.binner->UpperEdge(static_cast<size_t>(best_feature), best_bin);
  const size_t left_id = BuildNode(binned, data, left_rows, depth + 1,
                                   options, rng, importance, total_weight);
  const size_t right_id = BuildNode(binned, data, right_rows, depth + 1,
                                    options, rng, importance, total_weight);
  Node& node = nodes_[node_id];
  node.feature = best_feature;
  node.threshold = threshold;
  node.left = static_cast<int32_t>(left_id);
  node.right = static_cast<int32_t>(right_id);
  return node_id;
}

std::span<const double> ClassificationTree::PredictProba(
    std::span<const double> row) const {
  TELCO_DCHECK(!nodes_.empty());
  size_t id = 0;
  while (nodes_[id].feature >= 0) {
    const Node& node = nodes_[id];
    id = row[node.feature] <= node.threshold
             ? static_cast<size_t>(node.left)
             : static_cast<size_t>(node.right);
  }
  return std::span<const double>(
      leaf_proba_.data() + nodes_[id].proba_offset, num_classes_);
}

void ClassificationTree::Export(std::vector<SerializedNode>* nodes,
                                std::vector<double>* leaf_proba) const {
  nodes->clear();
  nodes->reserve(nodes_.size());
  for (const Node& n : nodes_) {
    nodes->push_back(
        SerializedNode{n.feature, n.threshold, n.left, n.right,
                       n.proba_offset});
  }
  *leaf_proba = leaf_proba_;
}

Result<ClassificationTree> ClassificationTree::Import(
    const std::vector<SerializedNode>& nodes,
    std::vector<double> leaf_proba, int num_classes) {
  if (num_classes < 2) {
    return Status::InvalidArgument("need at least 2 classes");
  }
  if (nodes.empty()) {
    return Status::InvalidArgument("tree must have at least one node");
  }
  const auto n = static_cast<int64_t>(nodes.size());
  for (const SerializedNode& node : nodes) {
    if (node.feature < 0) {
      // Leaf: its class distribution must fit the probability array.
      if (node.proba_offset < 0 ||
          static_cast<int64_t>(node.proba_offset) + num_classes >
              static_cast<int64_t>(leaf_proba.size())) {
        return Status::InvalidArgument("leaf probability offset invalid");
      }
    } else {
      if (node.left < 0 || node.left >= n || node.right < 0 ||
          node.right >= n) {
        return Status::InvalidArgument("child index out of range");
      }
    }
  }
  ClassificationTree tree;
  tree.num_classes_ = num_classes;
  tree.leaf_proba_ = std::move(leaf_proba);
  tree.nodes_.reserve(nodes.size());
  for (const SerializedNode& node : nodes) {
    tree.nodes_.push_back(Node{node.feature, node.threshold, node.left,
                               node.right, node.proba_offset});
  }
  return tree;
}

// ----------------------------------------------------------- RegressionTree

Status RegressionTree::Fit(const BinnedDataset& binned,
                           std::span<const double> grad,
                           std::span<const double> hess,
                           const std::vector<size_t>& indices,
                           const TreeOptions& options, double lambda,
                           Rng* rng) {
  if (indices.empty()) {
    return Status::InvalidArgument("cannot fit a tree on zero rows");
  }
  if (grad.size() != binned.num_rows || hess.size() != binned.num_rows) {
    return Status::InvalidArgument("gradient size mismatch");
  }
  nodes_.clear();
  std::vector<size_t> work(indices);
  BuildNode(binned, grad, hess, work, 0, options, lambda, rng);
  return Status::OK();
}

size_t RegressionTree::BuildNode(const BinnedDataset& binned,
                                 std::span<const double> grad,
                                 std::span<const double> hess,
                                 std::vector<size_t>& node_indices, int depth,
                                 const TreeOptions& options, double lambda,
                                 Rng* rng) {
  const size_t node_id = nodes_.size();
  nodes_.emplace_back();

  double g_total = 0.0;
  double h_total = 0.0;
  for (size_t idx : node_indices) {
    g_total += grad[idx];
    h_total += hess[idx];
  }
  const double parent_score = g_total * g_total / (h_total + lambda);

  auto make_leaf = [&] {
    nodes_[node_id].value = -g_total / (h_total + lambda);
    return node_id;
  };

  if (depth >= options.max_depth ||
      node_indices.size() < options.min_samples_split) {
    return make_leaf();
  }

  const std::vector<size_t> features =
      SampleFeatures(binned.num_features, options.max_features, rng);

  double best_gain = options.min_improvement;
  int best_feature = -1;
  int best_bin = -1;

  std::vector<double> g_hist;
  std::vector<double> h_hist;
  std::vector<size_t> bin_counts;
  for (size_t j : features) {
    const int num_bins = binned.binner->NumBins(j);
    if (num_bins < 2) continue;
    g_hist.assign(num_bins, 0.0);
    h_hist.assign(num_bins, 0.0);
    bin_counts.assign(num_bins, 0);
    for (size_t idx : node_indices) {
      const uint8_t code = binned.Code(idx, j);
      g_hist[code] += grad[idx];
      h_hist[code] += hess[idx];
      ++bin_counts[code];
    }
    double g_left = 0.0;
    double h_left = 0.0;
    size_t left_count = 0;
    for (int b = 0; b + 1 < num_bins; ++b) {
      g_left += g_hist[b];
      h_left += h_hist[b];
      left_count += bin_counts[b];
      const size_t right_count = node_indices.size() - left_count;
      if (left_count < options.min_samples_leaf ||
          right_count < options.min_samples_leaf) {
        continue;
      }
      const double g_right = g_total - g_left;
      const double h_right = h_total - h_left;
      // Newton gain (the 1/2 factor is constant and omitted).
      const double gain = g_left * g_left / (h_left + lambda) +
                          g_right * g_right / (h_right + lambda) -
                          parent_score;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(j);
        best_bin = b;
      }
    }
  }

  if (best_feature < 0) return make_leaf();

  std::vector<size_t> left_rows;
  std::vector<size_t> right_rows;
  left_rows.reserve(node_indices.size());
  right_rows.reserve(node_indices.size());
  for (size_t idx : node_indices) {
    if (binned.Code(idx, best_feature) <= best_bin) {
      left_rows.push_back(idx);
    } else {
      right_rows.push_back(idx);
    }
  }
  node_indices.clear();
  node_indices.shrink_to_fit();

  const double threshold =
      binned.binner->UpperEdge(static_cast<size_t>(best_feature), best_bin);
  const size_t left_id = BuildNode(binned, grad, hess, left_rows, depth + 1,
                                   options, lambda, rng);
  const size_t right_id = BuildNode(binned, grad, hess, right_rows,
                                    depth + 1, options, lambda, rng);
  Node& node = nodes_[node_id];
  node.feature = best_feature;
  node.threshold = threshold;
  node.left = static_cast<int32_t>(left_id);
  node.right = static_cast<int32_t>(right_id);
  return node_id;
}

void RegressionTree::Export(std::vector<SerializedNode>* nodes) const {
  nodes->clear();
  nodes->reserve(nodes_.size());
  for (const Node& n : nodes_) {
    nodes->push_back(
        SerializedNode{n.feature, n.threshold, n.left, n.right, n.value});
  }
}

double RegressionTree::Predict(std::span<const double> row) const {
  TELCO_DCHECK(!nodes_.empty());
  size_t id = 0;
  while (nodes_[id].feature >= 0) {
    const Node& node = nodes_[id];
    id = row[node.feature] <= node.threshold
             ? static_cast<size_t>(node.left)
             : static_cast<size_t>(node.right);
  }
  return nodes_[id].value;
}

}  // namespace telco
