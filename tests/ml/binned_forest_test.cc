// Binned-forest parity suite: the compiled engine must be bit-identical
// to the pointer walk of its trees — for fitted RF and GBDT ensembles,
// any batch size and thread count, rows landing exactly on split
// thresholds, adversarial values (NaN, +/-inf, denormals, -0.0),
// single-node trees, the uint16 wide-code path, and the serialize
// round-trip. Equality is asserted on the double's bit pattern, not an
// epsilon: agreeing on the predicted class is implied by agreeing on
// every score bit. Models the engine cannot encode (a looping tree, too
// many thresholds on one feature, a feature index past uint16) must fail
// to compile, never score. The FlatForestTest suite drives the two
// compilers directly on tree vectors, outside any model.

#include "ml/binned_forest.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "common/telemetry/metrics.h"
#include "common/thread_pool.h"
#include "ml/gbdt.h"
#include "ml/random_forest.h"
#include "ml/serialize.h"
#include "ml_test_util.h"
#include "serve/model_snapshot.h"

namespace telco {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kDenormal = std::numeric_limits<double>::denorm_min();

// Bitwise equality: catches -0.0 vs 0.0 and distinguishes NaN payloads,
// which EXPECT_DOUBLE_EQ (and even ==) would not.
void ExpectBitEqual(const std::vector<double>& binned,
                    const std::vector<double>& oracle) {
  ASSERT_EQ(binned.size(), oracle.size());
  for (size_t i = 0; i < binned.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(binned[i]),
              std::bit_cast<uint64_t>(oracle[i]))
        << "row " << i << ": binned " << binned[i] << " vs pointer walk "
        << oracle[i];
  }
}

std::vector<double> PointerWalk(const Classifier& model,
                                const FeatureMatrix& rows) {
  std::vector<double> out;
  out.reserve(rows.num_rows());
  for (size_t i = 0; i < rows.num_rows(); ++i) {
    out.push_back(model.PredictProba(rows.Row(i)));
  }
  return out;
}

// Compares the model's compiled engine — directly and through the
// PredictProbaBatch entry point — against its pointer walk across thread
// counts for one row set.
template <typename Model>
void ExpectEngineParity(const Model& model, const FeatureMatrix& rows) {
  ASSERT_NE(model.binned(), nullptr);
  const BinnedForest& binned = *model.binned();
  const std::vector<double> oracle = PointerWalk(model, rows);
  ThreadPool pool1(1);
  ThreadPool pool3(3);
  ExpectBitEqual(binned.PredictProba(rows, nullptr), oracle);
  ExpectBitEqual(binned.PredictProba(rows, &pool1), oracle);
  ExpectBitEqual(binned.PredictProba(rows, &pool3), oracle);
  ExpectBitEqual(model.PredictProbaBatch(rows, &pool3), oracle);
}

// Batch sizes around the AVX2 group (8 rows) and the block (64 rows).
std::vector<size_t> BatchSizes(std::initializer_list<size_t> larger) {
  std::vector<size_t> sizes;
  for (size_t n = 1; n <= 9; ++n) sizes.push_back(n);
  sizes.insert(sizes.end(), larger);
  return sizes;
}

TEST(BinnedForestTest, RandomForestParityAcrossBatchSizesAndThreads) {
  const Dataset train = ml_testing::LinearlySeparable(600, 902);
  RandomForestOptions options;
  options.num_trees = 31;
  options.min_samples_split = 20;
  RandomForest forest(options);
  ASSERT_TRUE(forest.Fit(train).ok());
  ASSERT_NE(forest.binned(), nullptr);
  EXPECT_EQ(forest.binned()->num_trees(), forest.num_trees());
  size_t tree_nodes = 0;
  for (const ClassificationTree& tree : forest.trees()) {
    tree_nodes += tree.num_nodes();
  }
  EXPECT_EQ(forest.binned()->num_nodes(), tree_nodes);
  // Trees train on 64-bin histograms, so every feature has few distinct
  // thresholds and the narrow uint8 code path is in play.
  EXPECT_FALSE(forest.binned()->wide_codes());

  for (const size_t n : BatchSizes({63, 64, 65, 200, 600})) {
    const Dataset rows = ml_testing::LinearlySeparable(n, 903 + n);
    ExpectEngineParity(forest, rows.Matrix());
  }
}

TEST(BinnedForestTest, GbdtParityAcrossBatchSizesAndThreads) {
  const Dataset train = ml_testing::XorDataset(500, 904);
  GbdtOptions options;
  options.num_trees = 25;
  options.max_depth = 4;
  options.min_samples_split = 10;
  options.subsample = 0.8;
  Gbdt model(options);
  ASSERT_TRUE(model.Fit(train).ok());
  ASSERT_NE(model.binned(), nullptr);
  EXPECT_EQ(model.binned()->num_trees(), model.num_trees());

  for (const size_t n : BatchSizes({63, 64, 65, 129, 400})) {
    const Dataset rows = ml_testing::XorDataset(n, 905 + n);
    ExpectEngineParity(model, rows.Matrix());
  }
}

// Hand-built forest with known thresholds so rows can be placed exactly
// on them: the bin-edge construction must make `code(v) < code(t)+1`
// agree with `v <= t` when v == t, one ulp either side, and at ±0.0.
RandomForest ThresholdForest() {
  using Node = ClassificationTree::SerializedNode;
  std::vector<ClassificationTree> trees;
  {
    // f0 thresholds 1.5 and -2.0 (duplicated across trees below), f1
    // threshold -0.0 (0.0 must still go left: -0.0 == 0.0).
    const std::vector<Node> nodes{
        {0, 1.5, 1, 4, -1},
        {0, -2.0, 2, 3, -1},
        {-1, 0.0, -1, -1, 0},
        {-1, 0.0, -1, -1, 2},
        {1, -0.0, 5, 6, -1},
        {-1, 0.0, -1, -1, 4},
        {-1, 0.0, -1, -1, 6},
    };
    auto tree = ClassificationTree::Import(
        nodes, {0.9, 0.1, 0.8, 0.2, 0.7, 0.3, 0.6, 0.4}, 2);
    EXPECT_TRUE(tree.ok());
    trees.push_back(std::move(*tree));
  }
  {
    // Duplicate threshold 1.5 on f0 (dedupe case) plus 1e300 on f1.
    const std::vector<Node> nodes{
        {0, 1.5, 1, 2, -1},
        {-1, 0.0, -1, -1, 0},
        {1, 1e300, 3, 4, -1},
        {-1, 0.0, -1, -1, 2},
        {-1, 0.0, -1, -1, 4},
    };
    auto tree = ClassificationTree::Import(
        nodes, {0.55, 0.45, 0.35, 0.65, 0.15, 0.85}, 2);
    EXPECT_TRUE(tree.ok());
    trees.push_back(std::move(*tree));
  }
  auto forest =
      RandomForest::FromParts(RandomForestOptions{}, 2, std::move(trees), {});
  EXPECT_TRUE(forest.ok()) << forest.status().ToString();
  return std::move(*forest);
}

TEST(BinnedForestTest, RowsExactlyOnSplitThresholdsBinIdentically) {
  const RandomForest forest = ThresholdForest();
  ASSERT_NE(forest.binned(), nullptr);

  Dataset rows({"f0", "f1"});
  const double below15 = std::nextafter(1.5, -kInf);
  const double above15 = std::nextafter(1.5, kInf);
  const std::vector<std::vector<double>> raw{
      {1.5, -0.0},      // exactly on both splits
      {1.5, 0.0},       // 0.0 <= -0.0 must hold (they compare equal)
      {below15, kDenormal},  // one ulp left of split; just right of -0.0
      {above15, -kDenormal},
      {-2.0, 1e300},    // exactly on the inner split and the huge split
      {std::nextafter(-2.0, kInf), std::nextafter(1e300, kInf)},
      {kNaN, 1.5},
      {1.5, kNaN},
  };
  for (const auto& r : raw) rows.AddRow(r, 0);
  ExpectEngineParity(forest, rows.Matrix());
}

// Hand-built forest exercising every adversarial threshold/topology the
// traversal can meet: a single-node (root = leaf) tree, +/-inf and
// denormal thresholds, and asymmetric subtrees. Import gives exact
// control over every stored double.
RandomForest AdversarialForest() {
  using Node = ClassificationTree::SerializedNode;
  std::vector<ClassificationTree> trees;
  {
    const std::vector<Node> nodes{{-1, 0.0, -1, -1, 0}};
    auto tree = ClassificationTree::Import(nodes, {0.25, 0.75}, 2);
    EXPECT_TRUE(tree.ok());
    trees.push_back(std::move(*tree));
  }
  {
    const std::vector<Node> nodes{
        {0, kInf, 1, 4, -1},       // only NaN f0 falls right
        {1, kDenormal, 2, 3, -1},
        {-1, 0.0, -1, -1, 0},
        {-1, 0.0, -1, -1, 2},
        {-1, 0.0, -1, -1, 4},
    };
    auto tree = ClassificationTree::Import(
        nodes, {0.9, 0.1, 0.6, 0.4, 0.125, 0.875}, 2);
    EXPECT_TRUE(tree.ok());
    trees.push_back(std::move(*tree));
  }
  {
    const std::vector<Node> nodes{
        {2, -kInf, 1, 2, -1},      // only f2 == -inf goes left
        {-1, 0.0, -1, -1, 0},
        {1, -0.0, 3, 4, -1},
        {-1, 0.0, -1, -1, 2},
        {-1, 0.0, -1, -1, 4},
    };
    auto tree = ClassificationTree::Import(
        nodes, {1.0, 0.0, 0.3, 0.7, 0.5, 0.5}, 2);
    EXPECT_TRUE(tree.ok());
    trees.push_back(std::move(*tree));
  }
  auto forest =
      RandomForest::FromParts(RandomForestOptions{}, 2, std::move(trees), {});
  EXPECT_TRUE(forest.ok()) << forest.status().ToString();
  return std::move(*forest);
}

// The exact engine here is the pointer walk: it compares the stored
// doubles themselves, so it is the reference the integer codes must match.
TEST(BinnedForestTest, AdversarialRowsBitIdenticalToExactEngine) {
  const RandomForest forest = AdversarialForest();
  ASSERT_NE(forest.binned(), nullptr);
  // One arena: 1 + 5 + 5 nodes across the three trees.
  EXPECT_EQ(forest.binned()->num_nodes(), 11u);
  EXPECT_EQ(forest.binned()->num_trees(), 3u);

  Dataset rows({"f0", "f1", "f2"});
  const std::vector<std::vector<double>> raw{
      {0.0, 0.0, 0.0},
      {kNaN, kNaN, kNaN},
      {kInf, -kInf, -kInf},
      {-kInf, kInf, kInf},
      {kDenormal, kDenormal, -kDenormal},
      {-kDenormal, -kDenormal, kDenormal},
      {0.0, -0.0, -kInf},
      {-0.0, 0.0, kNaN},
      {std::numeric_limits<double>::max(),
       std::numeric_limits<double>::lowest(), kDenormal},
      {kNaN, 1.0, -kInf},  // NaN on one feature only
  };
  for (const auto& r : raw) rows.AddRow(r, 0);
  ExpectEngineParity(forest, rows.Matrix());
}

TEST(BinnedForestTest, SingleNodeForestScoresConstant) {
  // Every tree is a bare leaf: the engine has zero features and zero
  // internal nodes, and the lock-step descent must terminate at once.
  using Node = ClassificationTree::SerializedNode;
  std::vector<ClassificationTree> trees;
  for (int t = 0; t < 3; ++t) {
    const std::vector<Node> nodes{{-1, 0.0, -1, -1, 0}};
    auto tree = ClassificationTree::Import(
        nodes, {0.5 - 0.1 * t, 0.5 + 0.1 * t}, 2);
    ASSERT_TRUE(tree.ok());
    trees.push_back(std::move(*tree));
  }
  auto forest =
      RandomForest::FromParts(RandomForestOptions{}, 2, std::move(trees), {});
  ASSERT_TRUE(forest.ok());
  ASSERT_NE(forest->binned(), nullptr);
  EXPECT_EQ(forest->binned()->num_features(), 0u);

  const Dataset rows = ml_testing::LinearlySeparable(70, 909);
  ExpectEngineParity(*forest, rows.Matrix());
}

// A right-descending chain splitting one feature at `count` ascending
// integer thresholds; forces the wide (uint16) code path when count >
// 255, and is past what uint16 codes can hold when count > 65535.
std::vector<ClassificationTree> ChainTrees(int count) {
  using Node = ClassificationTree::SerializedNode;
  std::vector<Node> nodes;
  std::vector<double> proba;
  // Node 2i: split f0 <= i; left = leaf 2i+1; right = next split (or a
  // final leaf).
  for (int i = 0; i < count; ++i) {
    nodes.push_back({0, static_cast<double>(i), static_cast<int>(nodes.size()) + 1,
                     static_cast<int>(nodes.size()) + 2, -1});
    nodes.push_back({-1, 0.0, -1, -1, static_cast<int32_t>(proba.size())});
    const double p = static_cast<double>(i) / (count + 1);
    proba.push_back(1.0 - p);
    proba.push_back(p);
  }
  nodes.push_back({-1, 0.0, -1, -1, static_cast<int32_t>(proba.size())});
  proba.push_back(0.0);
  proba.push_back(1.0);
  auto tree = ClassificationTree::Import(nodes, std::move(proba), 2);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  std::vector<ClassificationTree> trees;
  trees.push_back(std::move(*tree));
  return trees;
}

RandomForest ChainForest(int count) {
  auto forest = RandomForest::FromParts(RandomForestOptions{}, 2,
                                        ChainTrees(count), {});
  EXPECT_TRUE(forest.ok()) << forest.status().ToString();
  return std::move(*forest);
}

// The text SaveRandomForest writes for `trees` with no importances — for
// models FromParts refuses, which therefore cannot be saved.
std::string ModelBody(const std::vector<ClassificationTree>& trees) {
  std::string body = StrFormat("telcochurn-rf 1\n2 %zu 0\n\n", trees.size());
  std::vector<ClassificationTree::SerializedNode> nodes;
  std::vector<double> proba;
  for (const ClassificationTree& tree : trees) {
    tree.Export(&nodes, &proba);
    body += StrFormat("%zu %zu\n", nodes.size(), proba.size());
    for (const auto& n : nodes) {
      body += StrFormat("%d %a %d %d %d\n", n.feature, n.threshold, n.left,
                        n.right, n.proba_offset);
    }
    for (const double p : proba) body += StrFormat("%a ", p);
    body += "\n";
  }
  return body;
}

TEST(BinnedForestTest, WideThresholdFeatureUsesUint16Codes) {
  const RandomForest forest = ChainForest(300);
  ASSERT_NE(forest.binned(), nullptr);
  EXPECT_TRUE(forest.binned()->wide_codes());

  Dataset rows({"f0"});
  for (int i = -1; i <= 301; ++i) {
    // On, below and above every threshold.
    rows.AddRow(std::vector<double>{static_cast<double>(i)}, 0);
    rows.AddRow(std::vector<double>{i + 0.5}, 0);
  }
  rows.AddRow(std::vector<double>{kNaN}, 0);
  ExpectEngineParity(forest, rows.Matrix());
}

TEST(BinnedForestTest, NarrowChainStaysUint8) {
  const RandomForest forest = ChainForest(255);
  ASSERT_NE(forest.binned(), nullptr);
  EXPECT_FALSE(forest.binned()->wide_codes());
  Dataset rows({"f0"});
  for (int i = 0; i < 256; ++i) {
    rows.AddRow(std::vector<double>{i - 0.25}, 0);
  }
  ExpectEngineParity(forest, rows.Matrix());
}

TEST(BinnedForestTest, TooManyThresholdsOnOneFeatureFailsClosed) {
  // 65536 distinct thresholds on f0: one more than uint16 codes hold.
  auto forest = RandomForest::FromParts(RandomForestOptions{}, 2,
                                        ChainTrees(65536), {});
  ASSERT_FALSE(forest.ok());
  EXPECT_TRUE(forest.status().IsInvalidArgument());
  EXPECT_NE(forest.status().ToString().find("feature 0"), std::string::npos)
      << forest.status().ToString();

  // The same model on disk must not load for serving either.
  ASSERT_EQ(ModelBody(ChainTrees(300)),
            [] {
              std::ostringstream out;
              EXPECT_TRUE(WriteRandomForest(ChainForest(300), out).ok());
              return out.str();
            }())
      << "ModelBody must write SaveRandomForest's format";
  const std::string path = testing::TempDir() + "/binned_chain65536.model";
  ml_testing::WriteStampedModel(path, ModelBody(ChainTrees(65536)));
  std::ofstream(path + ".features") << "f0\n";
  const auto snapshot = ModelSnapshot::LoadFromFile(path);
  ASSERT_FALSE(snapshot.ok());
  EXPECT_NE(snapshot.status().ToString().find("feature 0"),
            std::string::npos)
      << snapshot.status().ToString();
  std::remove(path.c_str());
  std::remove((path + ".features").c_str());
}

TEST(BinnedForestTest, FeatureIndexPastUint16FailsClosed) {
  using Node = ClassificationTree::SerializedNode;
  const auto forest_splitting_on = [](int32_t feature) {
    const std::vector<Node> nodes{
        {feature, 0.5, 1, 2, -1},
        {-1, 0.0, -1, -1, 0},
        {-1, 0.0, -1, -1, 2},
    };
    auto tree =
        ClassificationTree::Import(nodes, {0.9, 0.1, 0.2, 0.8}, 2);
    EXPECT_TRUE(tree.ok());
    std::vector<ClassificationTree> trees;
    trees.push_back(std::move(*tree));
    return RandomForest::FromParts(RandomForestOptions{}, 2,
                                   std::move(trees), {});
  };
  const auto widest = forest_splitting_on(65534);
  ASSERT_TRUE(widest.ok()) << widest.status().ToString();
  EXPECT_EQ(widest->binned()->num_features(), 65535u);

  const auto too_wide = forest_splitting_on(65535);
  ASSERT_FALSE(too_wide.ok());
  EXPECT_TRUE(too_wide.status().IsInvalidArgument());
  EXPECT_NE(too_wide.status().ToString().find("feature 65535"),
            std::string::npos)
      << too_wide.status().ToString();
}

TEST(BinnedForestTest, CyclicTreeFailsToCompile) {
  // The root's right child points back at the root. Import checks child
  // ranges only, and the pointer walk would spin forever on any row that
  // goes right, so the compiler is the guard.
  using Node = ClassificationTree::SerializedNode;
  const std::vector<Node> nodes{
      {0, 0.5, 1, 0, -1},
      {-1, 0.0, -1, -1, 0},
  };
  auto tree = ClassificationTree::Import(nodes, {0.5, 0.5}, 2);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  std::vector<ClassificationTree> trees;
  trees.push_back(std::move(*tree));
  auto forest =
      RandomForest::FromParts(RandomForestOptions{}, 2, std::move(trees), {});
  ASSERT_FALSE(forest.ok());
  EXPECT_TRUE(forest.status().IsInvalidArgument());
  EXPECT_NE(forest.status().ToString().find("cycle"), std::string::npos)
      << forest.status().ToString();
}

TEST(BinnedForestTest, SerializeRoundTripKeepsBinnedEngine) {
  const Dataset train = ml_testing::LinearlySeparable(300, 910);
  RandomForestOptions options;
  options.num_trees = 9;
  options.min_samples_split = 20;
  RandomForest forest(options);
  ASSERT_TRUE(forest.Fit(train).ok());
  ASSERT_NE(forest.binned(), nullptr);

  const std::string path =
      testing::TempDir() + "/binned_roundtrip.model";
  ASSERT_TRUE(SaveRandomForest(forest, path).ok());
  auto loaded = LoadRandomForest(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_NE(loaded->binned(), nullptr);

  const Dataset rows = ml_testing::LinearlySeparable(150, 911);
  ExpectBitEqual(loaded->binned()->PredictProba(rows.Matrix(), nullptr),
                 forest.binned()->PredictProba(rows.Matrix(), nullptr));
  ExpectEngineParity(*loaded, rows.Matrix());
  std::remove(path.c_str());
}

uint64_t BinnedBatchRows() {
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  const MetricValue* m = snapshot.Find("ml.binned_forest.batch_rows");
  return m != nullptr ? m->counter : 0;
}

TEST(BinnedForestTest, BatchScoringRunsTheBinnedEngine) {
  // Parity alone would not notice batch scoring quietly falling back to
  // the per-row pointer walk; the engine's row counter does.
  const Dataset train = ml_testing::LinearlySeparable(200, 912);
  RandomForestOptions rf_options;
  rf_options.num_trees = 7;
  rf_options.min_samples_split = 20;
  RandomForest forest(rf_options);
  ASSERT_TRUE(forest.Fit(train).ok());
  GbdtOptions gbdt_options;
  gbdt_options.num_trees = 7;
  Gbdt gbdt(gbdt_options);
  ASSERT_TRUE(gbdt.Fit(train).ok());
  const Dataset rows = ml_testing::LinearlySeparable(50, 913);

  const uint64_t before = BinnedBatchRows();
  forest.PredictProbaBatch(rows.Matrix(), nullptr);
  EXPECT_EQ(BinnedBatchRows(), before + rows.num_rows());
  gbdt.PredictProbaBatch(rows.Matrix(), nullptr);
  EXPECT_EQ(BinnedBatchRows(), before + 2 * rows.num_rows());
}

TEST(BinnedForestDeathTest, NarrowRowsAreRefused) {
  // Codes are read from row[0 .. num_features()); a narrower row must
  // stop the process in every build rather than be read past its end.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const RandomForest forest = AdversarialForest();  // tests f0..f2
  const std::vector<double> narrow(5 * 2, 0.0);
  const FeatureMatrix rows(narrow.data(), 5, 2);
  EXPECT_DEATH(forest.binned()->PredictProba(rows, nullptr), "columns");
}

TEST(BinnedForestTest, EmptyBatchScoresNothing) {
  const RandomForest forest = ThresholdForest();
  ASSERT_NE(forest.binned(), nullptr);
  const FeatureMatrix empty(nullptr, 0, 2);
  EXPECT_TRUE(forest.binned()->PredictProba(empty, nullptr).empty());
  ThreadPool pool(2);
  EXPECT_TRUE(forest.binned()->PredictProba(empty, &pool).empty());
  EXPECT_TRUE(forest.PredictProbaBatch(empty, &pool).empty());
}


// FlatForestTest: the two compilers, CompileAverage and CompileMargin,
// called directly on a tree vector outside any model. They flatten every
// tree into one preorder arena; the arena must hold exactly the source
// nodes and score bit-identically to the pointer walk of the same trees.

// The compiled arena's scores for `rows`, through PredictProbaInto.
std::vector<double> ScoreInto(const BinnedForest& engine,
                              const FeatureMatrix& rows, ThreadPool* pool) {
  std::vector<double> out(rows.num_rows(), -1.0);
  engine.PredictProbaInto(rows, out, pool);
  return out;
}

TEST(FlatForestTest, RandomForestParityAcrossBatchSizesAndThreads) {
  const Dataset train = ml_testing::LinearlySeparable(600, 902);
  RandomForestOptions options;
  options.num_trees = 31;
  options.min_samples_split = 20;
  RandomForest forest(options);
  ASSERT_TRUE(forest.Fit(train).ok());
  const auto engine = BinnedForest::CompileAverage(forest.trees());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine->num_trees(), forest.num_trees());
  EXPECT_EQ(engine->num_nodes(), forest.binned()->num_nodes());

  ThreadPool pool1(1);
  ThreadPool pool3(3);
  for (const size_t n : {size_t{1}, size_t{63}, size_t{64}, size_t{65},
                         size_t{200}, size_t{600}}) {
    const Dataset rows = ml_testing::LinearlySeparable(n, 903 + n);
    const std::vector<double> expect = PointerWalk(forest, rows.Matrix());
    ExpectBitEqual(ScoreInto(*engine, rows.Matrix(), nullptr), expect);
    ExpectBitEqual(ScoreInto(*engine, rows.Matrix(), &pool1), expect);
    ExpectBitEqual(ScoreInto(*engine, rows.Matrix(), &pool3), expect);
  }
}

TEST(FlatForestTest, GbdtParityAcrossBatchSizesAndThreads) {
  const Dataset train = ml_testing::XorDataset(500, 904);
  GbdtOptions options;
  options.num_trees = 25;
  options.max_depth = 4;
  options.min_samples_split = 10;
  options.subsample = 0.8;
  Gbdt model(options);
  ASSERT_TRUE(model.Fit(train).ok());
  const auto engine = BinnedForest::CompileMargin(
      model.trees(), model.base_margin(), options.learning_rate);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine->num_trees(), model.num_trees());
  size_t tree_nodes = 0;
  for (const RegressionTree& tree : model.trees()) {
    tree_nodes += tree.num_nodes();
  }
  EXPECT_EQ(engine->num_nodes(), tree_nodes);

  ThreadPool pool3(3);
  for (const size_t n : {size_t{1}, size_t{64}, size_t{129}, size_t{400}}) {
    const Dataset rows = ml_testing::XorDataset(n, 905 + n);
    const std::vector<double> expect = PointerWalk(model, rows.Matrix());
    ExpectBitEqual(ScoreInto(*engine, rows.Matrix(), nullptr), expect);
    ExpectBitEqual(ScoreInto(*engine, rows.Matrix(), &pool3), expect);
  }

  // The rate scales every leaf: the same trees compiled at another rate
  // must score differently.
  const auto doubled = BinnedForest::CompileMargin(
      model.trees(), model.base_margin(), 2 * options.learning_rate);
  ASSERT_TRUE(doubled.ok());
  const Dataset rows = ml_testing::XorDataset(20, 906);
  EXPECT_NE(doubled->PredictProba(rows.Matrix(), nullptr),
            engine->PredictProba(rows.Matrix(), nullptr));
}

TEST(FlatForestTest, EmptyBatchScoresNothing) {
  const Dataset train = ml_testing::LinearlySeparable(300, 906);
  RandomForestOptions options;
  options.num_trees = 5;
  options.min_samples_split = 20;
  RandomForest forest(options);
  ASSERT_TRUE(forest.Fit(train).ok());
  const FeatureMatrix empty(nullptr, 0, train.num_features());
  EXPECT_TRUE(forest.PredictProbaBatch(empty, nullptr).empty());
  ThreadPool pool(2);
  EXPECT_TRUE(forest.PredictProbaBatch(empty, &pool).empty());

  const auto engine = BinnedForest::CompileAverage(forest.trees());
  ASSERT_TRUE(engine.ok());
  EXPECT_TRUE(ScoreInto(*engine, empty, nullptr).empty());
  EXPECT_TRUE(ScoreInto(*engine, empty, &pool).empty());
}

TEST(FlatForestTest, AdversarialRowsBitIdenticalToPointerWalk) {
  // The adversarial trees plus one whose root splits at a NaN threshold:
  // `v <= NaN` is false for every v, so every row must fall right.
  using Node = ClassificationTree::SerializedNode;
  std::vector<ClassificationTree> trees = AdversarialForest().trees();
  {
    const std::vector<Node> nodes{
        {1, kNaN, 1, 2, -1},
        {-1, 0.0, -1, -1, 0},
        {-1, 0.0, -1, -1, 2},
    };
    auto tree = ClassificationTree::Import(nodes, {0.2, 0.8, 0.7, 0.3}, 2);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    trees.push_back(std::move(*tree));
  }
  const auto engine = BinnedForest::CompileAverage(trees);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  // One arena: 1 + 5 + 5 + 3 nodes across the four trees.
  EXPECT_EQ(engine->num_nodes(), 14u);
  EXPECT_EQ(engine->num_trees(), 4u);

  auto oracle =
      RandomForest::FromParts(RandomForestOptions{}, 2, std::move(trees), {});
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

  Dataset rows({"f0", "f1", "f2"});
  const std::vector<std::vector<double>> raw{
      {0.0, 0.0, 0.0},
      {kNaN, kNaN, kNaN},
      {kInf, -kInf, -kInf},
      {-kInf, kInf, kInf},
      {kDenormal, kDenormal, -kDenormal},
      {-kDenormal, -kDenormal, kDenormal},
      {0.0, -0.0, -kInf},
      {-0.0, 0.0, kNaN},
      {std::numeric_limits<double>::max(),
       std::numeric_limits<double>::lowest(), kDenormal},
      {kNaN, 1.0, -kInf},
  };
  for (const auto& r : raw) rows.AddRow(r, 0);
  const std::vector<double> expect = PointerWalk(*oracle, rows.Matrix());
  ThreadPool pool(2);
  ExpectBitEqual(ScoreInto(*engine, rows.Matrix(), nullptr), expect);
  ExpectBitEqual(ScoreInto(*engine, rows.Matrix(), &pool), expect);
}

TEST(FlatForestTest, SingleLeafGbdtAndAdversarialRowsMatch) {
  const Dataset train = ml_testing::LinearlySeparable(400, 907);
  GbdtOptions options;
  options.num_trees = 8;
  options.max_depth = 0;  // every tree is a single leaf
  Gbdt stub(options);
  ASSERT_TRUE(stub.Fit(train).ok());
  for (const RegressionTree& tree : stub.trees()) {
    EXPECT_EQ(tree.num_nodes(), 1u);
  }
  const auto stub_engine = BinnedForest::CompileMargin(
      stub.trees(), stub.base_margin(), options.learning_rate);
  ASSERT_TRUE(stub_engine.ok());
  EXPECT_EQ(stub_engine->num_nodes(), 8u);
  EXPECT_EQ(stub_engine->num_features(), 0u);

  GbdtOptions deep = options;
  deep.max_depth = 5;
  deep.min_samples_split = 10;
  Gbdt model(deep);
  ASSERT_TRUE(model.Fit(train).ok());

  Dataset rows({"x0", "x1", "x2"});
  rows.AddRow(std::vector<double>{kNaN, kInf, -kInf}, 0);
  rows.AddRow(std::vector<double>{kDenormal, -kDenormal, kNaN}, 0);
  rows.AddRow(std::vector<double>{0.0, -0.0, 1e300}, 0);
  ExpectBitEqual(ScoreInto(*stub_engine, rows.Matrix(), nullptr),
                 PointerWalk(stub, rows.Matrix()));
  ExpectEngineParity(stub, rows.Matrix());
  ExpectEngineParity(model, rows.Matrix());
}

TEST(FlatForestTest, SerializedForestRoundTripKeepsFlatEngine) {
  // ReadRandomForest goes through FromParts, which must compile the same
  // arena the in-memory forest holds.
  const RandomForest forest = AdversarialForest();
  std::stringstream model;
  ASSERT_TRUE(WriteRandomForest(forest, model).ok());
  auto loaded = ReadRandomForest(model);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_NE(loaded->binned(), nullptr);
  EXPECT_EQ(loaded->binned()->num_nodes(), forest.binned()->num_nodes());
  EXPECT_EQ(loaded->binned()->num_trees(), forest.binned()->num_trees());
  EXPECT_EQ(loaded->binned()->num_features(),
            forest.binned()->num_features());
  // 3-feature adversarial forest scores 3-feature rows.
  const Dataset rows = ml_testing::LinearlySeparable(10, 908);
  ExpectBitEqual(loaded->binned()->PredictProba(rows.Matrix(), nullptr),
                 PointerWalk(forest, rows.Matrix()));
}

}  // namespace
}  // namespace telco
