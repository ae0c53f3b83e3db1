#include "serve/model_snapshot.h"

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "../ml/ml_test_util.h"
#include "common/thread_pool.h"
#include "ml/serialize.h"

namespace telco {
namespace {

RandomForest FittedForest(const Dataset& data, int trees = 12) {
  RandomForestOptions options;
  options.num_trees = trees;
  options.min_samples_split = 20;
  RandomForest forest(options);
  EXPECT_TRUE(forest.Fit(data).ok());
  return forest;
}

class ModelSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = ml_testing::LinearlySeparable(600, 1201);
    forest_ = FittedForest(data_);
  }

  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/" + name;
  }

  Dataset data_{std::vector<std::string>{}};
  RandomForest forest_;
};

TEST_F(ModelSnapshotTest, FromForestScoresMatchForest) {
  auto snapshot =
      ModelSnapshot::FromForest(forest_, data_.feature_names(), "unit");
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ((*snapshot)->num_features(), 3u);
  EXPECT_EQ((*snapshot)->label(), "unit");
  for (size_t i = 0; i < data_.num_rows(); ++i) {
    EXPECT_EQ((*snapshot)->Score(data_.Row(i)),
              forest_.PredictProba(data_.Row(i)));
  }
}

TEST_F(ModelSnapshotTest, FingerprintEqualsCanonicalChecksum) {
  auto snapshot =
      ModelSnapshot::FromForest(forest_, data_.feature_names(), "unit");
  ASSERT_TRUE(snapshot.ok());
  auto checksum = ForestChecksum(forest_);
  ASSERT_TRUE(checksum.ok());
  EXPECT_EQ((*snapshot)->fingerprint(), *checksum);
}

TEST_F(ModelSnapshotTest, ScoreBatchBitIdenticalToRowScores) {
  auto snapshot =
      ModelSnapshot::FromForest(forest_, data_.feature_names(), "unit");
  ASSERT_TRUE(snapshot.ok());
  ThreadPool pool(3);
  const std::vector<double> batch = (*snapshot)->ScoreBatch(data_, &pool);
  ASSERT_EQ(batch.size(), data_.num_rows());
  for (size_t i = 0; i < data_.num_rows(); ++i) {
    EXPECT_EQ(batch[i], (*snapshot)->Score(data_.Row(i))) << "row " << i;
  }
}

TEST_F(ModelSnapshotTest, RejectsUnfittedForest) {
  RandomForest unfitted{RandomForestOptions{}};
  auto snapshot = ModelSnapshot::FromForest(
      unfitted, std::vector<std::string>{"x0"}, "bad");
  EXPECT_FALSE(snapshot.ok());
}

TEST_F(ModelSnapshotTest, RejectsEmptySchema) {
  auto snapshot =
      ModelSnapshot::FromForest(forest_, std::vector<std::string>{}, "bad");
  EXPECT_FALSE(snapshot.ok());
}

// A split on a feature the schema does not name would read past every
// schema-width row the executor admits, so the snapshot refuses it —
// loaded from disk or wrapped from memory.
TEST_F(ModelSnapshotTest, RejectsSplitOnFeatureOutsideSchema) {
  const std::string path = TempPath("snapshot_feature1000.rf");
  // One tree splitting on feature 1000, next to a two-column sidecar.
  ml_testing::WriteStampedModel(path,
                                "telcochurn-rf 1\n2 1 0\n\n"
                                "3 4\n"
                                "1000 0x1p-1 1 2 -1\n"
                                "-1 0x0p+0 -1 -1 0\n"
                                "-1 0x0p+0 -1 -1 2\n"
                                "0x1p-1 0x1p-1 0x1p-2 0x1.8p-1 \n");
  std::ofstream(path + ".features") << "x0\nx1\n";
  auto forest = LoadRandomForest(path);
  ASSERT_TRUE(forest.ok()) << forest.status().ToString();
  EXPECT_EQ(forest->binned()->num_features(), 1001u);

  auto loaded = ModelSnapshot::LoadFromFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
  EXPECT_NE(loaded.status().ToString().find("feature 1000"),
            std::string::npos)
      << loaded.status().ToString();
  EXPECT_FALSE(ModelSnapshot::FromForest(
                   *forest, std::vector<std::string>{"x0", "x1"}, "narrow")
                   .ok());

  // A schema wide enough for the split is accepted.
  std::vector<std::string> wide;
  for (int j = 0; j <= 1000; ++j) wide.push_back("c" + std::to_string(j));
  EXPECT_TRUE(ModelSnapshot::FromForest(*forest, wide, "wide").ok());
  std::remove(path.c_str());
  std::remove((path + ".features").c_str());
}

TEST_F(ModelSnapshotTest, LoadFromFileRoundTrips) {
  const std::string path = TempPath("snapshot_roundtrip.rf");
  ASSERT_TRUE(SaveRandomForest(forest_, path).ok());
  {
    std::ofstream sidecar(path + ".features");
    for (const std::string& name : data_.feature_names()) {
      sidecar << name << "\n";
    }
  }
  auto loaded = ModelSnapshot::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->feature_names(), data_.feature_names());
  EXPECT_EQ((*loaded)->label(), path);
  auto checksum = ForestChecksum(forest_);
  ASSERT_TRUE(checksum.ok());
  EXPECT_EQ((*loaded)->fingerprint(), *checksum);
  for (size_t i = 0; i < data_.num_rows(); ++i) {
    EXPECT_EQ((*loaded)->Score(data_.Row(i)),
              forest_.PredictProba(data_.Row(i)));
  }
  std::remove(path.c_str());
  std::remove((path + ".features").c_str());
}

TEST_F(ModelSnapshotTest, LoadFailsWithoutSidecar) {
  const std::string path = TempPath("snapshot_nosidecar.rf");
  ASSERT_TRUE(SaveRandomForest(forest_, path).ok());
  auto loaded = ModelSnapshot::LoadFromFile(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST_F(ModelSnapshotTest, LoadFailsClosedOnCorruptModel) {
  const std::string path = TempPath("snapshot_corrupt.rf");
  ASSERT_TRUE(SaveRandomForest(forest_, path).ok());
  {
    std::ofstream sidecar(path + ".features");
    for (const std::string& name : data_.feature_names()) {
      sidecar << name << "\n";
    }
  }
  // Flip one byte in the middle of the model body.
  std::fstream file(path,
                    std::ios::in | std::ios::out | std::ios::binary);
  file.seekg(0, std::ios::end);
  const auto size = file.tellg();
  ASSERT_GT(size, 64);
  file.seekp(static_cast<std::streamoff>(size) / 2);
  file.put('#');
  file.close();
  auto loaded = ModelSnapshot::LoadFromFile(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
  std::remove((path + ".features").c_str());
}

}  // namespace
}  // namespace telco
