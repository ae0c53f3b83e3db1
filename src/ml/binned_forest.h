// BinnedForest: the compiled inference engine of every fitted tree
// ensemble (RandomForest, Gbdt).
//
// The pointer-walk prediction path (ClassificationTree::PredictProba /
// RegressionTree::Predict) compares one double per 40-byte node scattered
// across one heap allocation per tree; at serving scale (~2.1M customers
// scored per month, paper §5) that cache-miss chain dominates. The
// compiler re-lays every tree into one arena of 8-byte nodes in DFS
// preorder — the left child is always the next node, the right child
// sits `right_delta` nodes ahead — whose threshold is a per-feature
// integer *bin code*: each incoming block of rows is mapped to bin codes
// once (one branchless lower_bound per feature, see ThresholdEdgeMap),
// and traversal becomes an integer compare over a cache-resident arena.
//
// Scores are bit-identical to the pointer walk — not merely close. The
// bin edges are exactly the distinct thresholds the ensemble tests, so
// `code(v) < code(t)+1  <=>  v <= t` for every row value v and stored
// threshold t (rows landing exactly on a split threshold bin identically
// to the double compare; NaN maps to a sentinel code above every split
// and falls right). Each row therefore reaches the same leaf, and the
// accumulation (tree order, RF average / GBDT sigmoid-of-margin) copies
// the pointer walk's arithmetic verbatim. The pointer walk stays in every
// model as the per-row path and the parity oracle; parity is enforced
// bit-for-bit in tests/ml/binned_forest_test.cc. See DESIGN.md §10.
//
// Node encoding (8 bytes, little-endian layout matters to the AVX2 path):
//   uint16 split;        // internal: code(threshold)+1;  leaf/NaN-split: 0
//   uint16 feature;      // code-buffer column tested;    leaf: 0
//   int32  right_delta;  // right child at (this + delta); leaf: 0
// Descent is the branch-free conditional move
//   idx += code < split ? 1 : right_delta;
// A leaf (right_delta == 0, split == 0) steps to itself: the 64-row
// block loop advances every row in lock step and stops when an iteration
// moves nobody, so rows at different depths need no per-row branches. An
// internal node with a NaN threshold keeps split == 0 with a real
// right_delta — no code is < 0, so it is unconditionally-right, matching
// `v <= NaN == false`. A runtime-dispatched AVX2 path (8 rows per step,
// gathered nodes and codes) accelerates the same loop on capable CPUs;
// the scalar loop scores batches of 1–7 rows, every block's `n % 8`
// tail, and everything off x86.

#ifndef TELCO_ML_BINNED_FOREST_H_
#define TELCO_ML_BINNED_FOREST_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "ml/binning.h"
#include "ml/decision_tree.h"
#include "ml/feature_matrix.h"

namespace telco {

class ThreadPool;

/// \brief Immutable integer-compare ensemble scorer (class-1
/// probabilities), bit-identical to the pointer walk of its trees.
class BinnedForest {
 public:
  /// Rows scored per block; one block is binned and walked tree-major by
  /// one thread.
  static constexpr size_t kBlockRows = 64;

  /// Compiles a random forest's trees: a leaf contributes its class-1
  /// probability and the row score is the tree average (RandomForest's
  /// PredictProba arithmetic, Eq. 4).
  ///
  /// Both compilers fail with InvalidArgument — never truncating a code
  /// silently — on a malformed topology (child index out of range, a
  /// cycle, more than 2^31 nodes or leaves), on a feature index >= 65535
  /// (nodes index features with uint16), or on a feature with more than
  /// 65535 distinct thresholds; the message names the feature.
  static Result<BinnedForest> CompileAverage(
      const std::vector<ClassificationTree>& trees);

  /// Compiles a GBDT's regression trees: a leaf contributes its value
  /// scaled by `learning_rate` and the row score is
  /// Sigmoid(base_margin + sum of contributions) (Gbdt's PredictProba
  /// arithmetic).
  static Result<BinnedForest> CompileMargin(
      const std::vector<RegressionTree>& trees, double base_margin,
      double learning_rate);

  /// Class-1 probability of every row, chunked across `pool` (null =
  /// serial); bit-identical for any batch split or thread count.
  /// Precondition (checked): rows.num_cols() >= num_features().
  std::vector<double> PredictProba(FeatureMatrix rows,
                                   ThreadPool* pool) const;

  /// Same, writing into `out` (out.size() == rows.num_rows()).
  void PredictProbaInto(FeatureMatrix rows, std::span<double> out,
                        ThreadPool* pool) const;

  size_t num_trees() const { return roots_.size(); }
  size_t num_nodes() const { return nodes_.size(); }
  /// Columns of the per-block code buffer (max tested feature + 1).
  size_t num_features() const { return edges_.num_features(); }
  /// True when some feature has >255 distinct thresholds, forcing uint16
  /// row codes instead of uint8.
  bool wide_codes() const { return wide_codes_; }

 private:
  // 8 bytes: eight nodes per cache line. Field order is load-bearing for
  // the AVX2 path, which gathers {split | feature << 16} as one 32-bit
  // word.
  struct Node {
    uint16_t split = 0;
    uint16_t feature = 0;
    int32_t right_delta = 0;
  };
  static_assert(sizeof(Node) == 8, "hot node must stay 8 bytes");

  BinnedForest() = default;

  // Appends one tree in DFS preorder; `src` is Export output,
  // `leaf_value` maps a source leaf to its contribution. Each emitted
  // node's threshold goes to `thresholds` (same index as nodes_) until
  // EncodeSplits turns them into codes.
  template <typename SrcNode, typename LeafValueFn>
  Status AppendTree(const std::vector<SrcNode>& src,
                    const LeafValueFn& leaf_value,
                    std::vector<double>* thresholds);

  // Builds the edge map from the emitted thresholds and sets every
  // internal node's split code.
  Status EncodeSplits(const std::vector<double>& thresholds);

  template <typename Code>
  void ScoreBlock(FeatureMatrix rows, size_t lo, size_t hi, Code* codes,
                  double* out) const;

  std::vector<Node> nodes_;      // all trees, DFS order, back to back
  std::vector<uint32_t> roots_;  // index of each tree's root in nodes_
  // Cold sidecar: leaf node -> its index in leaf_values_ (-1 = internal).
  // Kept out of the hot node so descent touches only 8 bytes per step.
  std::vector<int32_t> leaf_slot_;
  std::vector<double> leaf_values_;
  ThresholdEdgeMap edges_;
  bool wide_codes_ = false;
  // Accumulation: RF averages leaf values; GBDT sums rate-scaled leaf
  // values onto the base margin and applies the sigmoid.
  bool margin_kind_ = false;
  double base_margin_ = 0.0;
  double learning_rate_ = 1.0;
};

}  // namespace telco

#endif  // TELCO_ML_BINNED_FOREST_H_
