#include "ml/serialize.h"

#include <limits>
#include <sstream>

#include "common/crc32.h"
#include "common/fault_injection.h"
#include "common/retry.h"
#include "common/string_util.h"
#include "storage/atomic_file.h"

namespace telco {

namespace {

constexpr char kMagic[] = "telcochurn-rf";
constexpr int kVersion = 1;

// Doubles are written as hex-float literals for byte-exact round trips.
void WriteDouble(std::ostream& out, double v) {
  out << StrFormat("%a", v);
}

Result<double> ReadDouble(std::istream& in) {
  std::string token;
  if (!(in >> token)) return Status::IoError("unexpected end of model file");
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0') {
    return Status::IoError("malformed double '" + token + "'");
  }
  return v;
}

Result<int64_t> ReadInt(std::istream& in) {
  int64_t v;
  if (!(in >> v)) return Status::IoError("unexpected end of model file");
  return v;
}

// Tree node fields are stored as int32.
Result<int32_t> ReadInt32(std::istream& in) {
  TELCO_ASSIGN_OR_RETURN(const int64_t v, ReadInt(in));
  if (v < std::numeric_limits<int32_t>::min() ||
      v > std::numeric_limits<int32_t>::max()) {
    return Status::IoError(StrFormat("tree node field %lld out of range",
                                     static_cast<long long>(v)));
  }
  return static_cast<int32_t>(v);
}

// Refuses a header count that the rest of the stream cannot hold, before
// it sizes a vector: every element takes at least `min_bytes` of text
// (two per number: a digit and a separator). A stream that cannot report
// its length holds nothing.
Status CheckCount(std::istream& in, int64_t count, int64_t min_bytes,
                  const char* what) {
  const std::streampos here = in.tellg();
  int64_t left = 0;
  if (here != std::streampos(-1)) {
    in.seekg(0, std::ios::end);
    const std::streampos end = in.tellg();
    in.seekg(here);
    if (end != std::streampos(-1)) left = static_cast<int64_t>(end - here);
  }
  if (count > left / min_bytes) {
    return Status::IoError(StrFormat(
        "model file declares %lld %s but has %lld bytes left",
        static_cast<long long>(count), what, static_cast<long long>(left)));
  }
  return Status::OK();
}

}  // namespace

Status WriteRandomForest(const RandomForest& forest, std::ostream& out) {
  if (forest.num_trees() == 0) {
    return Status::InvalidArgument("cannot serialise an unfitted forest");
  }
  out << kMagic << ' ' << kVersion << '\n';
  out << forest.num_classes() << ' ' << forest.num_trees() << ' '
      << forest.FeatureImportance().size() << '\n';
  for (double v : forest.FeatureImportance()) {
    WriteDouble(out, v);
    out << ' ';
  }
  out << '\n';
  std::vector<ClassificationTree::SerializedNode> nodes;
  std::vector<double> leaf_proba;
  for (const ClassificationTree& tree : forest.trees()) {
    tree.Export(&nodes, &leaf_proba);
    out << nodes.size() << ' ' << leaf_proba.size() << '\n';
    for (const auto& n : nodes) {
      out << n.feature << ' ';
      WriteDouble(out, n.threshold);
      out << ' ' << n.left << ' ' << n.right << ' ' << n.proba_offset
          << '\n';
    }
    for (double p : leaf_proba) {
      WriteDouble(out, p);
      out << ' ';
    }
    out << '\n';
  }
  if (!out) return Status::IoError("error writing model stream");
  return Status::OK();
}

Result<RandomForest> ReadRandomForest(std::istream& in) {
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != kMagic) {
    return Status::IoError("not a telcochurn forest file");
  }
  if (version != kVersion) {
    return Status::IoError(
        StrFormat("unsupported model version %d", version));
  }
  TELCO_ASSIGN_OR_RETURN(const int64_t num_classes, ReadInt(in));
  TELCO_ASSIGN_OR_RETURN(const int64_t num_trees, ReadInt(in));
  TELCO_ASSIGN_OR_RETURN(const int64_t num_features, ReadInt(in));
  if (num_classes < 2 || num_classes > std::numeric_limits<int>::max() ||
      num_trees < 1 || num_trees > 100000 || num_features < 0) {
    return Status::IoError("implausible model header");
  }
  TELCO_RETURN_NOT_OK(CheckCount(in, num_features, 2, "importances"));
  TELCO_RETURN_NOT_OK(CheckCount(in, num_trees, 2, "trees"));
  std::vector<double> importance;
  importance.reserve(num_features);
  for (int64_t j = 0; j < num_features; ++j) {
    TELCO_ASSIGN_OR_RETURN(const double v, ReadDouble(in));
    importance.push_back(v);
  }
  std::vector<ClassificationTree> trees;
  trees.reserve(num_trees);
  for (int64_t t = 0; t < num_trees; ++t) {
    TELCO_ASSIGN_OR_RETURN(const int64_t num_nodes, ReadInt(in));
    TELCO_ASSIGN_OR_RETURN(const int64_t proba_len, ReadInt(in));
    if (num_nodes < 1 || proba_len < num_classes) {
      return Status::IoError("implausible tree header");
    }
    // A node is five numbers, hence at least ten bytes.
    TELCO_RETURN_NOT_OK(CheckCount(in, num_nodes, 10, "tree nodes"));
    TELCO_RETURN_NOT_OK(CheckCount(in, proba_len, 2, "leaf probabilities"));
    std::vector<ClassificationTree::SerializedNode> nodes(num_nodes);
    for (auto& n : nodes) {
      TELCO_ASSIGN_OR_RETURN(n.feature, ReadInt32(in));
      TELCO_ASSIGN_OR_RETURN(n.threshold, ReadDouble(in));
      TELCO_ASSIGN_OR_RETURN(n.left, ReadInt32(in));
      TELCO_ASSIGN_OR_RETURN(n.right, ReadInt32(in));
      TELCO_ASSIGN_OR_RETURN(n.proba_offset, ReadInt32(in));
    }
    std::vector<double> leaf_proba;
    leaf_proba.reserve(proba_len);
    for (int64_t i = 0; i < proba_len; ++i) {
      TELCO_ASSIGN_OR_RETURN(const double p, ReadDouble(in));
      leaf_proba.push_back(p);
    }
    TELCO_ASSIGN_OR_RETURN(
        ClassificationTree tree,
        ClassificationTree::Import(nodes, std::move(leaf_proba),
                                   static_cast<int>(num_classes)));
    trees.push_back(std::move(tree));
  }
  return RandomForest::FromParts(RandomForestOptions{},
                                 static_cast<int>(num_classes),
                                 std::move(trees), std::move(importance));
}

Status SaveRandomForest(const RandomForest& forest,
                        const std::string& path) {
  std::ostringstream body;
  TELCO_RETURN_NOT_OK(WriteRandomForest(forest, body));
  // The trailer checksums every byte above it; a truncated, bit-flipped
  // or trailer-less file is rejected by LoadRandomForest.
  std::string content = body.str();
  content += "crc32 " + Crc32Hex(Crc32(content)) + '\n';
  TELCO_RETURN_NOT_OK(MaybeInjectFault("model.save"));
  return WriteFileAtomic(path, content);
}

Result<RandomForest> LoadRandomForest(const std::string& path) {
  // Only the read is retried: a file that reads but fails its checksum
  // or parse fails the same way every time.
  TELCO_ASSIGN_OR_RETURN(
      const std::string content,
      RetryWithBackoff(RetryOptions{}, [&]() -> Result<std::string> {
        TELCO_RETURN_NOT_OK(MaybeInjectFault("model.load"));
        return ReadFileToString(path);
      }));
  if (content.empty() || content.back() != '\n') {
    return Status::IoError("model file '" + path +
                           "' is truncated (no final newline)");
  }
  size_t trailer_start =
      content.size() >= 2 ? content.rfind('\n', content.size() - 2)
                          : std::string::npos;
  trailer_start = trailer_start == std::string::npos ? 0 : trailer_start + 1;
  const std::string trailer =
      content.substr(trailer_start, content.size() - trailer_start - 1);
  if (!StartsWith(trailer, "crc32 ")) {
    return Status::IoError("model file '" + path +
                           "' has no checksum trailer (truncated file?)");
  }
  uint32_t expected = 0;
  if (!ParseCrc32Hex(trailer.substr(6), &expected)) {
    return Status::IoError("model file '" + path +
                           "' has a malformed checksum trailer");
  }
  const std::string model_body = content.substr(0, trailer_start);
  if (Crc32(model_body) != expected) {
    return Status::IoError("checksum mismatch in model file '" + path +
                           "' (corrupt or torn file)");
  }
  std::istringstream in(model_body);
  return ReadRandomForest(in);
}

Result<uint32_t> ForestChecksum(const RandomForest& forest) {
  std::ostringstream body;
  TELCO_RETURN_NOT_OK(WriteRandomForest(forest, body));
  return Crc32(body.str());
}

}  // namespace telco
