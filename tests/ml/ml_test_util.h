// Shared synthetic datasets and model-file helpers for ML-layer tests.

#ifndef TELCO_TESTS_ML_ML_TEST_UTIL_H_
#define TELCO_TESTS_ML_ML_TEST_UTIL_H_

#include <fstream>
#include <string>

#include "common/crc32.h"
#include "common/rng.h"
#include "ml/dataset.h"

namespace telco {
namespace ml_testing {

// Binary dataset with a planted signal: label 1 iff
// x0 + 0.5 * x1 + noise > threshold; x2 is pure noise.
inline Dataset LinearlySeparable(size_t n, uint64_t seed,
                                 double noise = 0.2,
                                 double positive_rate = 0.5) {
  Dataset data({"x0", "x1", "x2"});
  Rng rng(seed);
  const double threshold = positive_rate < 0.5 ? 1.2 : 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double x0 = rng.Gaussian();
    const double x1 = rng.Gaussian();
    const double x2 = rng.Gaussian();
    const double score = x0 + 0.5 * x1 + noise * rng.Gaussian();
    const double row[3] = {x0, x1, x2};
    data.AddRow(std::span<const double>(row, 3), score > threshold ? 1 : 0);
  }
  return data;
}

// XOR-style dataset: label = (x0 > 0) != (x1 > 0); linearly inseparable,
// trees and FMs must capture the interaction.
inline Dataset XorDataset(size_t n, uint64_t seed) {
  Dataset data({"x0", "x1"});
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const double x0 = rng.Gaussian();
    const double x1 = rng.Gaussian();
    const double row[2] = {x0, x1};
    data.AddRow(std::span<const double>(row, 2),
                ((x0 > 0.0) != (x1 > 0.0)) ? 1 : 0);
  }
  return data;
}

// Three-class dataset: class = argmin distance to one of three centroids.
inline Dataset ThreeClassBlobs(size_t n, uint64_t seed) {
  Dataset data({"x0", "x1"});
  Rng rng(seed);
  const double cx[3] = {0.0, 4.0, 0.0};
  const double cy[3] = {0.0, 0.0, 4.0};
  for (size_t i = 0; i < n; ++i) {
    const int c = static_cast<int>(rng.UniformInt(3));
    const double row[2] = {cx[c] + rng.Gaussian(), cy[c] + rng.Gaussian()};
    data.AddRow(std::span<const double>(row, 2), c);
  }
  return data;
}

// Writes a model body to `path` with the `crc32` trailer SaveRandomForest
// appends, so LoadRandomForest gets past the checksum to the parser.
inline void WriteStampedModel(const std::string& path,
                              const std::string& body) {
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << body << "crc32 " << Crc32Hex(Crc32(body)) << "\n";
}

}  // namespace ml_testing
}  // namespace telco

#endif  // TELCO_TESTS_ML_ML_TEST_UTIL_H_
