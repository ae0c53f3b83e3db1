#include "util.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "common/telemetry/json.h"
#include "storage/atomic_file.h"

namespace perfbench {

telco::Result<Options> ParseOptions(int argc, char** argv) {
  Options options;
  if (argc < 2) return telco::Status::InvalidArgument("missing subcommand");
  options.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt") {
      options.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) {
      return telco::Status::InvalidArgument(flag + " expects a value");
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--sf") {
      options.sf = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--work") {
      options.work = value;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--port") {
      options.port = std::atoi(value.c_str());
    } else if (flag == "--plan") {
      options.plan = value;
    } else if (flag == "--out") {
      options.out = value;
    } else {
      return telco::Status::InvalidArgument("unknown flag " + flag);
    }
  }
  if (!(options.sf > 0.0) || !(options.seconds > 0.0)) {
    return telco::Status::InvalidArgument("--sf and --seconds must be > 0");
  }
  return options;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

size_t Cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double HostStealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double field = 0.0;
  double steal = 0.0;
  stat >> cpu;
  for (int i = 1; i <= 8 && (stat >> field); ++i) {
    if (i == 8) steal = field;
  }
  return steal / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

uint64_t Fingerprint(std::span<const int64_t> imsis,
                     std::span<const double> scores) {
  uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&hash](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= 1099511628211ULL;
    }
  };
  for (const int64_t imsi : imsis) mix(&imsi, sizeof(imsi));
  for (const double score : scores) mix(&score, sizeof(score));
  return hash;
}

int Tracer::Begin(const std::string& name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, NowSeconds(), 0.0,
                        open_.empty() ? -1 : open_.back()});
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  spans_[id].end = NowSeconds();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

double Tracer::SelfSeconds(int id) const {
  double self = spans_[id].end - spans_[id].start;
  for (const Span& span : spans_) {
    if (span.parent == id) self -= span.end - span.start;
  }
  return self;
}

telco::Status Tracer::WriteJson(const std::string& path) const {
  std::string out = "[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (i > 0) out += ",\n";
    out += "{\"name\":\"" + telco::JsonEscape(span.name) +
           "\",\"start\":" + telco::JsonNumber(span.start) +
           ",\"end\":" + telco::JsonNumber(span.end) +
           ",\"parent\":" + std::to_string(span.parent) +
           ",\"self\":" +
           telco::JsonNumber(SelfSeconds(static_cast<int>(i))) + "}";
  }
  out += "]\n";
  return telco::WriteFileAtomic(path, out);
}

double Results::Get(const std::string& key) const {
  const auto it = values_.find(key);
  return it == values_.end() ? 0.0 : it->second;
}

void Results::Print() const {
  for (const auto& [key, value] : values_) {
    std::printf("%s=%.17g\n", key.c_str(), value);
  }
  std::fflush(stdout);
}

double DirMb(const std::string& dir) {
  double bytes = 0.0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) {
      bytes += static_cast<double>(entry.file_size());
    }
  }
  return bytes / (1024.0 * 1024.0);
}

}  // namespace perfbench
