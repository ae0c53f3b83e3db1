// Seeded mutation fuzz of the serving model loader. Bytes and tokens of a
// saved model body and of its `.features` sidecar are mutated, the CRC
// trailer is re-stamped so the parser is reached, and
// ModelSnapshot::LoadFromFile must then either return a non-OK Status or
// yield a snapshot whose batch scores over schema-width rows equal the
// per-row pointer walk bit for bit. A crash, an abort on an oversized
// allocation, a hang or an out-of-bounds read (under
// -DTELCO_SANITIZE=address,undefined) fails the suite.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../ml/ml_test_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "ml/serialize.h"
#include "serve/model_snapshot.h"
#include "storage/atomic_file.h"

namespace telco {
namespace {

constexpr int kIterations = 4000;

// Values that probe the loader's bounds: counts, child and leaf indices,
// feature indices on both sides of a schema and of uint16, and the ends
// of int32/int64.
const char* const kInterestingTokens[] = {
    "0",          "1",          "-1",         "2",
    "3",          "7",          "255",        "256",
    "1000",       "65534",      "65535",      "65536",
    "2147483647", "-2147483648", "4294967296", "1000000000000",
    "9223372036854775807",      "nan",        "inf",
    "-inf",       "0x1p-1074",  "-0x0p+0",    "x",
};

// Bytes a text model is made of, plus a few it is not.
const char kAlphabet[] = "0123456789abcdefpx+-. \n\t#";

// [begin, end) of the whitespace-delimited token covering `pos`.
std::pair<size_t, size_t> TokenAt(const std::string& text, size_t pos) {
  const auto is_space = [&](size_t i) {
    return text[i] == ' ' || text[i] == '\n';
  };
  size_t begin = pos;
  while (begin > 0 && !is_space(begin - 1)) --begin;
  size_t end = pos;
  while (end < text.size() && !is_space(end)) ++end;
  return {begin, end};
}

void Mutate(std::string* text, Rng& rng) {
  if (text->empty()) {
    *text += kAlphabet[rng.UniformInt(sizeof(kAlphabet) - 1)];
    return;
  }
  const size_t pos = rng.UniformInt(text->size());
  switch (rng.UniformInt(5)) {
    case 0:  // overwrite one byte
      (*text)[pos] = kAlphabet[rng.UniformInt(sizeof(kAlphabet) - 1)];
      break;
    case 1:  // insert one byte
      text->insert(text->begin() + static_cast<std::ptrdiff_t>(pos),
                   kAlphabet[rng.UniformInt(sizeof(kAlphabet) - 1)]);
      break;
    case 2:  // delete a short run
      text->erase(pos, 1 + rng.UniformInt(8));
      break;
    case 3: {  // truncate
      text->resize(pos);
      break;
    }
    default: {  // replace a whole token with a boundary value
      const auto [begin, end] = TokenAt(*text, pos);
      const size_t pick = rng.UniformInt(std::size(kInterestingTokens));
      text->replace(begin, end - begin, kInterestingTokens[pick]);
      break;
    }
  }
}

std::vector<std::vector<double>> FuzzRows(size_t width, Rng& rng) {
  const double specials[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::denorm_min(),
                             1e300};
  std::vector<std::vector<double>> rows(70, std::vector<double>(width));
  for (auto& row : rows) {
    for (double& v : row) {
      v = rng.UniformInt(4) == 0 ? specials[rng.UniformInt(std::size(specials))]
                                 : 2.0 * rng.Gaussian();
    }
  }
  return rows;
}

TEST(ModelLoaderFuzzTest, MutatedModelsLoadCleanlyOrFailWithStatus) {
  const Dataset data = ml_testing::LinearlySeparable(300, 1301);
  RandomForestOptions options;
  options.num_trees = 4;
  options.min_samples_split = 40;
  RandomForest forest(options);
  ASSERT_TRUE(forest.Fit(data).ok());

  const std::string path = testing::TempDir() + "/model_fuzz.rf";
  ASSERT_TRUE(SaveRandomForest(forest, path).ok());
  auto saved = ReadFileToString(path);
  ASSERT_TRUE(saved.ok());
  const std::string body = saved->substr(0, saved->rfind("crc32 "));
  std::string sidecar;
  for (const std::string& name : data.feature_names()) sidecar += name + "\n";

  ThreadPool pool(2);
  Rng rng(1302);
  size_t loaded = 0;
  size_t refused = 0;
  for (int it = 0; it < kIterations; ++it) {
    std::string fuzzed_body = body;
    std::string fuzzed_sidecar = sidecar;
    const uint64_t mutations = 1 + rng.UniformInt(3);
    for (uint64_t m = 0; m < mutations; ++m) {
      Mutate(rng.UniformInt(8) == 0 ? &fuzzed_sidecar : &fuzzed_body, rng);
    }
    ml_testing::WriteStampedModel(path, fuzzed_body);
    std::ofstream(path + ".features", std::ios::binary | std::ios::trunc)
        << fuzzed_sidecar;

    const auto snapshot = ModelSnapshot::LoadFromFile(path);
    if (!snapshot.ok()) {
      ++refused;
      continue;
    }
    ++loaded;
    const ModelSnapshot& model = **snapshot;
    FeatureMatrixBuffer rows(model.num_features());
    for (const auto& row : FuzzRows(model.num_features(), rng)) {
      rows.AddRow(row);
    }
    const std::vector<double> batch = model.ScoreBatch(rows.matrix(), &pool);
    ASSERT_EQ(batch.size(), rows.matrix().num_rows());
    for (size_t r = 0; r < batch.size(); ++r) {
      ASSERT_EQ(std::bit_cast<uint64_t>(batch[r]),
                std::bit_cast<uint64_t>(model.Score(rows.matrix().Row(r))))
          << "iteration " << it << " row " << r << "\n"
          << fuzzed_body;
    }
  }
  RecordProperty("loaded", static_cast<int>(loaded));
  RecordProperty("refused", static_cast<int>(refused));
  // Both outcomes must be exercised, or the fuzz proves nothing.
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(refused, 0u);
  std::remove(path.c_str());
  std::remove((path + ".features").c_str());
}

}  // namespace
}  // namespace telco
