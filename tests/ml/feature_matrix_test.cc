// FeatureMatrix: the non-owning row-major view every batch scorer
// consumes, and the buffer request batches pack their rows into.

#include "ml/feature_matrix.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "ml_test_util.h"

namespace telco {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(FeatureMatrixTest, ViewsDatasetRowsInPlace) {
  const Dataset data = ml_testing::LinearlySeparable(17, 901);
  const FeatureMatrix m = data.Matrix();
  ASSERT_EQ(m.num_rows(), data.num_rows());
  ASSERT_EQ(m.num_cols(), data.num_features());
  for (size_t i = 0; i < data.num_rows(); ++i) {
    const auto row = data.Row(i);
    const auto view = m.Row(i);
    ASSERT_EQ(view.data(), row.data()) << "Matrix() must not copy";
    for (size_t j = 0; j < row.size(); ++j) {
      EXPECT_EQ(m.At(i, j), row[j]);
    }
  }
}

TEST(FeatureMatrixTest, BufferPacksRowsContiguously) {
  FeatureMatrixBuffer buffer(3);
  buffer.Reserve(2);
  const std::vector<double> r0{1.0, 2.0, 3.0};
  const std::vector<double> r1{-0.0, kNaN, kInf};
  buffer.AddRow(r0);
  buffer.AddRow(r1);
  const FeatureMatrix m = buffer.matrix();
  ASSERT_EQ(m.num_rows(), 2u);
  ASSERT_EQ(m.num_cols(), 3u);
  EXPECT_EQ(m.Row(1).data(), m.Row(0).data() + 3);
  EXPECT_EQ(m.At(0, 1), 2.0);
  EXPECT_EQ(std::bit_cast<uint64_t>(m.At(1, 0)),
            std::bit_cast<uint64_t>(-0.0));
  EXPECT_TRUE(std::isnan(m.At(1, 1)));
  EXPECT_EQ(m.At(1, 2), kInf);
}

TEST(FeatureMatrixTest, EmptyMatrix) {
  const FeatureMatrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.num_rows(), 0u);
  FeatureMatrixBuffer buffer(4);
  EXPECT_EQ(buffer.matrix().num_rows(), 0u);
}

}  // namespace
}  // namespace telco
