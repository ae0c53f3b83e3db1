// Parallel-vs-serial equivalence: every parallelised stage must produce
// bit-identical results for a fixed seed, for any thread count. These
// tests pin the determinism contract of common/thread_pool.h — per-chunk
// RNG streams, pool-size-independent chunk grids, and chunk-order
// reductions — at the stage level.

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "churn/pipeline.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "datagen/telco_simulator.h"
#include "features/wide_table.h"
#include "graph/pagerank.h"
#include "ml/random_forest.h"

namespace telco {
namespace {

Dataset SyntheticDataset(size_t rows, size_t features, uint64_t seed) {
  std::vector<std::string> names;
  names.reserve(features);
  for (size_t f = 0; f < features; ++f) {
    names.push_back("f" + std::to_string(f));
  }
  Dataset data(std::move(names));
  Rng rng(seed);
  std::vector<double> row(features);
  for (size_t r = 0; r < rows; ++r) {
    double sum = 0.0;
    for (size_t f = 0; f < features; ++f) {
      row[f] = rng.Uniform();
      sum += row[f];
    }
    data.AddRow(row, sum > features * 0.5 ? 1 : 0);
  }
  return data;
}

TEST(ParallelEquivalenceTest, ForestTrainingIdenticalAcrossPoolSizes) {
  const Dataset train = SyntheticDataset(600, 12, 11);
  const Dataset test = SyntheticDataset(200, 12, 12);

  ThreadPool pool1(1);
  ThreadPool pool4(4);
  RandomForestOptions options;
  options.num_trees = 24;
  options.min_samples_split = 20;
  options.seed = 5;

  options.pool = &pool1;
  RandomForest serial(options);
  ASSERT_TRUE(serial.Fit(train).ok());
  options.pool = &pool4;
  RandomForest parallel(options);
  ASSERT_TRUE(parallel.Fit(train).ok());

  for (size_t r = 0; r < test.num_rows(); ++r) {
    EXPECT_EQ(serial.PredictProba(test.Row(r)),
              parallel.PredictProba(test.Row(r)));
  }
  ASSERT_EQ(serial.FeatureImportance().size(),
            parallel.FeatureImportance().size());
  for (size_t f = 0; f < serial.FeatureImportance().size(); ++f) {
    EXPECT_EQ(serial.FeatureImportance()[f], parallel.FeatureImportance()[f]);
  }
}

TEST(ParallelEquivalenceTest, BatchScoringMatchesPerRowScoring) {
  const Dataset train = SyntheticDataset(600, 10, 21);
  const Dataset test = SyntheticDataset(300, 10, 22);

  RandomForestOptions options;
  options.num_trees = 16;
  options.min_samples_split = 20;
  RandomForest forest(options);
  ASSERT_TRUE(forest.Fit(train).ok());

  ThreadPool pool(4);
  const std::vector<double> batch = forest.PredictProbaBatch(test, &pool);
  const std::vector<double> batch_inline =
      forest.PredictProbaBatch(test, nullptr);
  ASSERT_EQ(batch.size(), test.num_rows());
  for (size_t r = 0; r < test.num_rows(); ++r) {
    EXPECT_EQ(batch[r], forest.PredictProba(test.Row(r)));
    EXPECT_EQ(batch[r], batch_inline[r]);
  }
}

TEST(ParallelEquivalenceTest, PageRankIdenticalWithAndWithoutPool) {
  Rng rng(33);
  constexpr size_t kVertices = 3000;
  GraphBuilder builder(kVertices);
  for (size_t e = 0; e < 12000; ++e) {
    const auto a = static_cast<uint32_t>(rng.UniformInt(kVertices));
    const auto b = static_cast<uint32_t>(rng.UniformInt(kVertices));
    if (a == b) continue;
    ASSERT_TRUE(builder.AddEdge(a, b, 1.0 + rng.Uniform()).ok());
  }
  const Graph graph = std::move(builder).Build();

  PageRankOptions serial_options;  // pool == nullptr -> serial sweep
  auto serial = PageRank(graph, serial_options);
  ASSERT_TRUE(serial.ok());

  ThreadPool pool(4);
  PageRankOptions pooled_options;
  pooled_options.pool = &pool;
  auto pooled = PageRank(graph, pooled_options);
  ASSERT_TRUE(pooled.ok());

  EXPECT_EQ(serial->iterations, pooled->iterations);
  ASSERT_EQ(serial->scores.size(), pooled->scores.size());
  for (size_t v = 0; v < serial->scores.size(); ++v) {
    EXPECT_EQ(serial->scores[v], pooled->scores[v]);
  }
}

class SimEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SimConfig config;
    config.num_customers = 1500;
    config.num_months = 3;
    config.num_communities = 40;
    config.num_cells = 20;
    catalog_ = new Catalog();
    TelcoSimulator sim(config);
    ASSERT_TRUE(sim.Run(catalog_).ok());
  }
  static void TearDownTestSuite() {
    delete catalog_;
    catalog_ = nullptr;
  }

  static Catalog* catalog_;
};

Catalog* SimEquivalenceTest::catalog_ = nullptr;

TEST_F(SimEquivalenceTest, WideTableIdenticalAcrossPoolSizes) {
  ThreadPool pool1(1);
  ThreadPool pool3(3);

  WideTableOptions options;
  options.cache_in_catalog = false;
  options.pool = &pool1;
  WideTableBuilder serial(catalog_, options);
  auto serial_wide = serial.Build(2);
  ASSERT_TRUE(serial_wide.ok()) << serial_wide.status().ToString();

  options.pool = &pool3;
  WideTableBuilder parallel(catalog_, options);
  auto parallel_wide = parallel.Build(2);
  ASSERT_TRUE(parallel_wide.ok()) << parallel_wide.status().ToString();

  const Table& a = *serial_wide->table;
  const Table& b = *parallel_wide->table;
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.schema().num_fields(), b.schema().num_fields());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    ASSERT_EQ(a.schema().field(c).name, b.schema().field(c).name);
    const Column& col_a = a.column(c);
    const Column& col_b = b.column(c);
    for (size_t r = 0; r < a.num_rows(); ++r) {
      ASSERT_EQ(col_a.IsNull(r), col_b.IsNull(r))
          << a.schema().field(c).name << " row " << r;
      if (col_a.IsNull(r)) continue;
      if (col_a.type() == DataType::kString) {
        ASSERT_EQ(col_a.GetString(r), col_b.GetString(r));
      } else {
        ASSERT_EQ(col_a.GetNumeric(r), col_b.GetNumeric(r))
            << a.schema().field(c).name << " row " << r;
      }
    }
  }
}

// Every cell compared by its bit pattern, so NaNs compare equal.
void ExpectTablesBitIdentical(const Table& a, const Table& b,
                              const std::string& what) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << what;
  ASSERT_EQ(a.schema().num_fields(), b.schema().num_fields()) << what;
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const std::string& name = a.schema().field(c).name;
    ASSERT_EQ(name, b.schema().field(c).name) << what;
    const Column& col_a = a.column(c);
    const Column& col_b = b.column(c);
    ASSERT_EQ(col_a.type(), col_b.type()) << what << " " << name;
    for (size_t r = 0; r < a.num_rows(); ++r) {
      ASSERT_EQ(col_a.IsNull(r), col_b.IsNull(r))
          << what << " " << name << " row " << r;
      switch (col_a.type()) {
        case DataType::kString:
          ASSERT_EQ(col_a.GetString(r), col_b.GetString(r))
              << what << " " << name << " row " << r;
          break;
        case DataType::kInt64:
          ASSERT_EQ(col_a.GetInt64(r), col_b.GetInt64(r))
              << what << " " << name << " row " << r;
          break;
        case DataType::kDouble: {
          const double x = col_a.GetDouble(r);
          const double y = col_b.GetDouble(r);
          ASSERT_EQ(std::memcmp(&x, &y, sizeof(x)), 0)
              << what << " " << name << " row " << r << ": " << x
              << " vs " << y;
          break;
        }
      }
    }
  }
}

// What one builder produced: month 1's wide table (when built), month
// 2's, and the FM-selected pairs.
struct BuiltMonths {
  TablePtr month1;
  TablePtr month2;
  std::vector<std::pair<std::string, std::string>> pairs;
};

// The wide-table build schedules the LDA and FM fits around the family
// fan-out differently depending on build order and pool size; none of it
// may change a bit of the tables or the selected pairs.
TEST_F(SimEquivalenceTest, WideTableIdenticalAcrossBuildOrdersAndPools) {
  enum class Order { k1Then2, k2Only, k2Then1 };
  const auto build = [&](size_t threads, Order order) {
    ThreadPool pool(threads);
    WideTableOptions options;
    options.cache_in_catalog = false;
    options.pool = &pool;
    WideTableBuilder builder(catalog_, options);
    BuiltMonths out;
    const auto month = [&](int m, TablePtr* table) {
      auto wide = builder.Build(m);
      ASSERT_TRUE(wide.ok()) << wide.status().ToString();
      *table = wide->table;
    };
    if (order == Order::k1Then2) month(1, &out.month1);
    month(2, &out.month2);
    if (order == Order::k2Then1) month(1, &out.month1);
    auto pairs = builder.SelectedSecondOrderPairs();
    EXPECT_TRUE(pairs.ok()) << pairs.status().ToString();
    if (pairs.ok()) out.pairs = *pairs;
    return out;
  };

  const BuiltMonths reference = build(1, Order::k1Then2);
  ASSERT_NE(reference.month1, nullptr);
  ASSERT_NE(reference.month2, nullptr);
  ASSERT_EQ(reference.pairs.size(), WideTableOptions().num_second_order);
  for (const size_t threads : {1u, 2u, 4u}) {
    for (const Order order : {Order::k1Then2, Order::k2Only, Order::k2Then1}) {
      const std::string what =
          "pool " + std::to_string(threads) + " order " +
          std::to_string(static_cast<int>(order));
      const BuiltMonths got = build(threads, order);
      ASSERT_NE(got.month2, nullptr) << what;
      ExpectTablesBitIdentical(*reference.month2, *got.month2, what + " m2");
      if (order != Order::k2Only) {
        ASSERT_NE(got.month1, nullptr) << what;
        ExpectTablesBitIdentical(*reference.month1, *got.month1,
                                 what + " m1");
      }
      EXPECT_EQ(reference.pairs, got.pairs) << what;
    }
  }
}

// A Build issued from one of its own pool's workers cannot submit work it
// would then wait for; it falls back to the serial schedule, must not
// deadlock, and gives the same table.
TEST_F(SimEquivalenceTest, WideTableBuiltInsidePoolWorkerMatches) {
  ThreadPool pool1(1);
  WideTableOptions options;
  options.cache_in_catalog = false;
  options.pool = &pool1;
  WideTableBuilder serial(catalog_, options);
  auto expected = serial.Build(2);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  ThreadPool pool4(4);
  options.pool = &pool4;
  WideTableBuilder nested(catalog_, options);
  Result<WideTable> got(Status::Internal("not built"));
  pool4.Submit([&] {
         ASSERT_TRUE(pool4.InWorkerThread());
         got = nested.Build(2);
       })
      .get();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectTablesBitIdentical(*expected->table, *got->table, "in worker");
  auto expected_pairs = serial.SelectedSecondOrderPairs();
  auto got_pairs = nested.SelectedSecondOrderPairs();
  ASSERT_TRUE(expected_pairs.ok() && got_pairs.ok());
  EXPECT_EQ(*expected_pairs, *got_pairs);
}

TEST_F(SimEquivalenceTest, PipelinePredictionsIdenticalAcrossThreadCounts) {
  auto run = [&](int num_threads) {
    PipelineOptions options;
    options.num_threads = num_threads;
    options.model.rf.num_trees = 20;
    options.model.rf.min_samples_split = 30;
    options.wide.cache_in_catalog = false;
    ChurnPipeline pipeline(catalog_, options);
    return pipeline.TrainAndPredict(3);
  };
  auto one = run(1);
  auto four = run(4);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  ASSERT_TRUE(four.ok()) << four.status().ToString();
  ASSERT_EQ(one->imsis.size(), four->imsis.size());
  EXPECT_EQ(one->imsis, four->imsis);
  EXPECT_EQ(one->scores, four->scores);
  EXPECT_EQ(one->labels, four->labels);
}

}  // namespace
}  // namespace telco
