// Shared helpers of the perfbench harness: command-line options, the
// in-memory span recorder, process gauges (peak RSS, CPU time) and the
// key=value result stream the orchestrator (perfbench/run.py) reads.

#ifndef PERFBENCH_HARNESS_UTIL_H_
#define PERFBENCH_HARNESS_UTIL_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"

namespace perfbench {

/// Options shared by every subcommand (unused ones keep their defaults).
struct Options {
  std::string command;
  std::string workload;
  uint64_t seed = 1;
  /// Warehouse scale factor (SF 1.0 = the paper's ~2.1M customers).
  double sf = 0.005;
  /// Scratch directory of this workload's inputs and outputs.
  std::string work;
  /// Seconds the timed phase measures for.
  double seconds = 10.0;
  bool trace = false;
  /// Where the span recorder writes its JSON at exit ("" = nowhere).
  std::string trace_out;
  /// Test hook: flip the lowest bit of one output score before it is
  /// checked, so the benchmark's own tests can prove a corrupted output
  /// is caught.
  bool corrupt = false;
  // loadgen-only arguments.
  int port = 0;
  std::string plan;
  std::string out;
};

telco::Result<Options> ParseOptions(int argc, char** argv);

/// A timed unit (batch pass, ladder phase) during which the hypervisor
/// gave more than this share of the guest's CPU time to other guests is
/// contended, and is left out of medians where an uncontended unit exists.
inline constexpr double kStealLimit = 0.05;

/// Seconds on the monotonic clock (shared by every process on the host).
double NowSeconds();

/// CPUs this process may run on.
size_t Cores();

/// Peak resident set (VmHWM) of this process in MiB.
double PeakRssMb();
/// Resets VmHWM to the current RSS, so a later PeakRssMb() reports the
/// peak of the work that follows, not of what came before.
void ResetPeakRss();
/// User + system CPU seconds of every thread of this process.
double ProcessCpuSeconds();
/// Seconds of CPU time the hypervisor gave to other guests while this
/// host's CPUs had work (the `steal` column of /proc/stat), summed over
/// CPUs; 0 where the kernel does not report it.
double HostStealSeconds();

double Median(std::vector<double> values);
/// q-quantile (0..1) by nearest rank of a copy of `values`.
double Quantile(std::vector<double> values, double q);

/// FNV-1a over the imsis and the bit patterns of the scores.
uint64_t Fingerprint(std::span<const int64_t> imsis,
                     std::span<const double> scores);

/// \brief In-memory spans around the benchmark's calls into each layer.
/// Disabled recorders cost one branch per span.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  int Begin(const std::string& name);
  void End(int id);
  /// Duration of span `id` minus the time its direct children cover.
  double SelfSeconds(int id) const;
  /// Writes the spans as a JSON array of {name,start,end,parent,self}.
  telco::Status WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op on a disabled recorder.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name)
      : tracer_(tracer), id_(tracer->enabled() ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// \brief Ordered key -> number results, printed as `key=value` lines.
class Results {
 public:
  void Set(const std::string& key, double value) { values_[key] = value; }
  void Add(const std::string& key, double value) { values_[key] += value; }
  double Get(const std::string& key) const;
  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  void Print() const;

 private:
  std::map<std::string, double> values_;
};

/// Size in MiB of the regular files directly under `dir`.
double DirMb(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_UTIL_H_
