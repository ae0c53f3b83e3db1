#include "ml/serialize.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/fault_injection.h"
#include "ml_test_util.h"
#include "storage/atomic_file.h"

namespace telco {
namespace {

RandomForest FittedForest(const Dataset& data) {
  RandomForestOptions options;
  options.num_trees = 15;
  options.min_samples_split = 20;
  options.parallel = false;
  RandomForest forest(options);
  EXPECT_TRUE(forest.Fit(data).ok());
  return forest;
}

TEST(SerializeTest, RoundTripPredictionsIdentical) {
  const Dataset data = ml_testing::LinearlySeparable(800, 901);
  const RandomForest original = FittedForest(data);
  std::stringstream stream;
  ASSERT_TRUE(WriteRandomForest(original, stream).ok());
  auto loaded = ReadRandomForest(stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_trees(), original.num_trees());
  EXPECT_EQ(loaded->num_classes(), original.num_classes());
  for (size_t i = 0; i < data.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(loaded->PredictProba(data.Row(i)),
                     original.PredictProba(data.Row(i)));
  }
}

TEST(SerializeTest, RoundTripImportance) {
  const Dataset data = ml_testing::LinearlySeparable(800, 903);
  const RandomForest original = FittedForest(data);
  std::stringstream stream;
  ASSERT_TRUE(WriteRandomForest(original, stream).ok());
  auto loaded = ReadRandomForest(stream);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->FeatureImportance().size(),
            original.FeatureImportance().size());
  for (size_t j = 0; j < original.FeatureImportance().size(); ++j) {
    EXPECT_DOUBLE_EQ(loaded->FeatureImportance()[j],
                     original.FeatureImportance()[j]);
  }
}

TEST(SerializeTest, MultiClassRoundTrip) {
  const Dataset data = ml_testing::ThreeClassBlobs(900, 905);
  const RandomForest original = FittedForest(data);
  std::stringstream stream;
  ASSERT_TRUE(WriteRandomForest(original, stream).ok());
  auto loaded = ReadRandomForest(stream);
  ASSERT_TRUE(loaded.ok());
  for (size_t i = 0; i < 100; ++i) {
    const auto a = original.PredictClassProba(data.Row(i));
    const auto b = loaded->PredictClassProba(data.Row(i));
    ASSERT_EQ(a.size(), b.size());
    for (size_t c = 0; c < a.size(); ++c) EXPECT_DOUBLE_EQ(a[c], b[c]);
  }
}

TEST(SerializeTest, FileRoundTrip) {
  const Dataset data = ml_testing::LinearlySeparable(400, 907);
  const RandomForest original = FittedForest(data);
  const std::string path = ::testing::TempDir() + "/telco_rf_test.model";
  ASSERT_TRUE(SaveRandomForest(original, path).ok());
  auto loaded = LoadRandomForest(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_DOUBLE_EQ(loaded->PredictProba(data.Row(0)),
                   original.PredictProba(data.Row(0)));
  std::remove(path.c_str());
}

TEST(SerializeTest, RejectsGarbage) {
  std::stringstream stream("not a model at all");
  EXPECT_TRUE(ReadRandomForest(stream).status().IsIoError());
}

TEST(SerializeTest, RejectsTruncated) {
  const Dataset data = ml_testing::LinearlySeparable(200, 909);
  const RandomForest original = FittedForest(data);
  std::stringstream stream;
  ASSERT_TRUE(WriteRandomForest(original, stream).ok());
  const std::string full = stream.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_FALSE(ReadRandomForest(truncated).ok());
}

TEST(SerializeTest, RejectsCorruptChildIndex) {
  // Header says 2 classes / 1 tree / 0 features; tree has one inner node
  // pointing at an out-of-range child.
  std::stringstream stream(
      "telcochurn-rf 1\n2 1 0\n\n1 2\n0 0x1p+0 5 6 -1\n0x1p-1 0x1p-1 \n");
  EXPECT_FALSE(ReadRandomForest(stream).ok());
}

// A header count the body cannot hold must fail as IoError before it
// sizes a vector (a 10^12-element reserve aborts the process).
TEST(SerializeTest, OversizedCountsFailBeforeAllocating) {
  const std::string path = ::testing::TempDir() + "/telco_rf_counts.model";
  for (const char* body : {
           // importances
           "telcochurn-rf 1\n2 1 1000000000000\n\n",
           // tree nodes
           "telcochurn-rf 1\n2 1 0\n\n1000000000000 2\n",
           // leaf probabilities
           "telcochurn-rf 1\n2 1 0\n\n1 1000000000000\n"
           "-1 0x0p+0 -1 -1 0\n",
           // trees
           "telcochurn-rf 1\n2 100000 0\n\n",
       }) {
    ml_testing::WriteStampedModel(path, body);
    const auto loaded = LoadRandomForest(path);
    EXPECT_TRUE(loaded.status().IsIoError())
        << body << " -> " << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, NodeFieldsOutsideInt32Fail) {
  std::stringstream stream(
      "telcochurn-rf 1\n2 1 0\n\n1 2\n-1 0x0p+0 -1 -1 4294967296\n"
      "0x1p-1 0x1p-1 \n");
  EXPECT_TRUE(ReadRandomForest(stream).status().IsIoError());
}

TEST(SerializeTest, MissingFileFails) {
  EXPECT_TRUE(
      LoadRandomForest("/nonexistent/model").status().IsIoError());
}

TEST(SerializeTest, SavedFileCarriesChecksumTrailer) {
  const Dataset data = ml_testing::LinearlySeparable(200, 911);
  const RandomForest original = FittedForest(data);
  const std::string path = ::testing::TempDir() + "/telco_rf_trailer.model";
  ASSERT_TRUE(SaveRandomForest(original, path).ok());
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  // Last line is "crc32 <8 hex>" covering everything above it.
  const size_t trailer = content->rfind("crc32 ");
  ASSERT_NE(trailer, std::string::npos);
  uint32_t recorded = 0;
  ASSERT_TRUE(ParseCrc32Hex(content->substr(trailer + 6, 8), &recorded));
  EXPECT_EQ(recorded, Crc32(content->substr(0, trailer)));
  std::remove(path.c_str());
}

TEST(SerializeTest, CorruptSavedFileFailsClosed) {
  const Dataset data = ml_testing::LinearlySeparable(200, 913);
  const RandomForest original = FittedForest(data);
  const std::string path = ::testing::TempDir() + "/telco_rf_corrupt.model";
  ASSERT_TRUE(SaveRandomForest(original, path).ok());
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  std::string tampered = *content;
  tampered[tampered.size() / 3] ^= 0x04;  // flip one bit in the body
  ASSERT_TRUE(WriteFileAtomic(path, tampered).ok());
  const auto loaded = LoadRandomForest(path);
  EXPECT_TRUE(loaded.status().IsIoError());
  EXPECT_NE(loaded.status().ToString().find("checksum mismatch"),
            std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(SerializeTest, TruncatedSavedFileFailsClosed) {
  const Dataset data = ml_testing::LinearlySeparable(200, 917);
  const RandomForest original = FittedForest(data);
  const std::string path =
      ::testing::TempDir() + "/telco_rf_truncated.model";
  ASSERT_TRUE(SaveRandomForest(original, path).ok());
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  // Cut mid-file: the trailer disappears, so the load must refuse.
  ASSERT_TRUE(
      WriteFileAtomic(path, content->substr(0, content->size() / 2)).ok());
  EXPECT_TRUE(LoadRandomForest(path).status().IsIoError());
  std::remove(path.c_str());
}

TEST(SerializeTest, TrailerlessFileFailsClosed) {
  const Dataset data = ml_testing::LinearlySeparable(200, 919);
  const RandomForest original = FittedForest(data);
  std::stringstream stream;
  ASSERT_TRUE(WriteRandomForest(original, stream).ok());
  const std::string path =
      ::testing::TempDir() + "/telco_rf_trailerless.model";
  // A complete body written without SaveRandomForest (no trailer) is
  // rejected: files from the unchecksummed writer must go through the
  // stream API instead.
  ASSERT_TRUE(WriteFileAtomic(path, stream.str()).ok());
  const auto loaded = LoadRandomForest(path);
  EXPECT_TRUE(loaded.status().IsIoError());
  EXPECT_NE(loaded.status().ToString().find("trailer"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SerializeTest, TransientLoadFaultIsRetried) {
  const Dataset data = ml_testing::LinearlySeparable(200, 921);
  const RandomForest original = FittedForest(data);
  const std::string path = ::testing::TempDir() + "/telco_rf_retry.model";
  ASSERT_TRUE(SaveRandomForest(original, path).ok());
  ::setenv("TELCO_FAULT", "model.load:1:error", 1);
  ResetFaultInjection();
  const auto loaded = LoadRandomForest(path);
  ::unsetenv("TELCO_FAULT");
  ResetFaultInjection();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_trees(), original.num_trees());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace telco
