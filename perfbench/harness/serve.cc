#include "serve.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <spawn.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>

#include "batch.h"
#include "churn/churn_model.h"
#include "common/string_util.h"
#include "common/telemetry/json.h"
#include "common/thread_pool.h"
#include "features/churn_labels.h"
#include "ml/metrics.h"
#include "ml/serialize.h"
#include "serve/model_router.h"
#include "serve/request_codec.h"
#include "serve/scoring_executor.h"
#include "serve/snapshot_registry.h"
#include "serve/tcp_server.h"
#include "storage/atomic_file.h"

extern char** environ;

namespace perfbench {

using telco::Result;
using telco::Status;

namespace {

// ---------------------------------------------------------------------
// The ladder: offered single-row score requests per second, one phase
// per rung, low to high, repeated for several rounds so that a slow
// stretch of the host lands on every rung rather than on one. A phase
// lasts in inverse proportion to its rate, so every rung gets the same
// number of requests. `low` and `high` are the rungs whose latency is
// reported; serve.max_ok_rps is the rate the server answered on the
// highest rung that (with every rung below it) meets the latency limit
// with no failure, no growing backlog and a generator that kept to its
// schedule. The top rung stays below the rate where the 500-tree server
// starts batching erratically.
constexpr double kRates[] = {4000, 7000, 10000};
constexpr size_t kRungs = std::size(kRates);
constexpr size_t kLowRung = 0;
constexpr size_t kHighRung = 2;
/// Rounds of the serve_open_loop ladder, and of the shorter serve probe
/// that follows a batch workload (whose low phases last
/// kProbeLowPhaseSeconds).
constexpr size_t kServeRounds = 4;
constexpr size_t kProbeRounds = 4;
constexpr double kProbeLowPhaseSeconds = 1.0;
/// Unreported warm-up at the low rate before the first phase, so the low
/// rung does not measure cold threads and caches.
constexpr double kWarmupSeconds = 0.3;
constexpr double kTimeoutSeconds = 1.0;
/// p99 limit of serve.max_ok_rps: a synchronous scoring call's budget. It
/// sits well above the few milliseconds a stolen vCPU adds to the tail of
/// a quiet rung, so the rung is judged on the server, not on the host.
constexpr double kLatencyLimitMs = 50.0;
/// Admission queue of the served executor: deep enough that a host stall
/// at the top rate shows as latency (and, past kTimeoutSeconds, as a
/// timeout) rather than as Unavailable rejections.
constexpr size_t kQueueDepth = 1u << 15;
/// A rung whose send lateness p99 exceeds this fell behind its schedule.
constexpr double kLateLimitMs = 1.0;
/// Phases are cut into windows of kWindowSamples requests. A rung's p99
/// is the median of its windows' p99s, so a stall of the host moves the
/// windows it hits, not the reported figure, and every window's p99 still
/// has 10 samples beyond it.
constexpr size_t kWindowSamples = 1000;
/// Micro-batch limit of the executor (the library default).
constexpr size_t kMaxBatch = 64;

/// Data connections of the load generator; one more carries the
/// `metrics` verb, so connections never exceed the core count.
size_t DataConnections() { return std::max<size_t>(1, Cores() - 1); }

std::string ServeDir(const Options& options) {
  return options.work + "/serve";
}

// ---------------------------------------------------------------------
// Plan: the schedule the server process hands the load generator. Phase
// p (of rounds x rungs) runs rung p % rungs.
struct Plan {
  double start = 0.0;
  std::vector<double> rates;
  size_t rounds = 1;
  /// Length of a phase of the first (lowest) rate.
  double phase_s = 0.0;
  size_t connections = 1;
  size_t rows = 0;
  int versions = 1;
  bool corrupt = false;
  std::string frames;
  std::string expected;

  size_t phases() const { return rounds * rates.size(); }
  size_t Rung(size_t phase) const { return phase % rates.size(); }
  double PhaseSeconds(size_t phase) const {
    return phase_s * rates[0] / rates[Rung(phase)];
  }
  double PhaseStart(size_t phase) const {
    double at = start;
    for (size_t p = 0; p < phase; ++p) at += PhaseSeconds(p);
    return at;
  }
};

Status WritePlan(const Plan& plan, const std::string& path) {
  std::string rates;
  for (const double rate : plan.rates) {
    if (!rates.empty()) rates += ",";
    rates += telco::StrFormat("%.17g", rate);
  }
  return telco::WriteFileAtomic(
      path,
      telco::StrFormat("start=%.17g\nrounds=%zu\nphase_s=%.17g\n"
                       "connections=%zu\nrows=%zu\nversions=%d\n"
                       "corrupt=%d\n",
                       plan.start, plan.rounds, plan.phase_s,
                       plan.connections, plan.rows, plan.versions,
                       plan.corrupt ? 1 : 0) +
          "rates=" + rates + "\nframes=" + plan.frames +
          "\nexpected=" + plan.expected + "\n");
}

std::map<std::string, std::string> ReadKeyValues(const std::string& path) {
  std::map<std::string, std::string> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const size_t eq = line.find('=');
    if (eq != std::string::npos) out[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return out;
}

Result<Plan> ReadPlan(const std::string& path) {
  auto kv = ReadKeyValues(path);
  if (kv.count("start") == 0 || kv.count("rates") == 0) {
    return Status::InvalidArgument("incomplete plan " + path);
  }
  Plan plan;
  plan.start = std::strtod(kv["start"].c_str(), nullptr);
  plan.rounds = std::strtoull(kv["rounds"].c_str(), nullptr, 10);
  plan.phase_s = std::strtod(kv["phase_s"].c_str(), nullptr);
  plan.connections = std::strtoull(kv["connections"].c_str(), nullptr, 10);
  plan.rows = std::strtoull(kv["rows"].c_str(), nullptr, 10);
  plan.versions = std::atoi(kv["versions"].c_str());
  plan.corrupt = kv["corrupt"] == "1";
  plan.frames = kv["frames"];
  plan.expected = kv["expected"];
  std::stringstream rates(kv["rates"]);
  std::string item;
  while (std::getline(rates, item, ',')) {
    plan.rates.push_back(std::strtod(item.c_str(), nullptr));
  }
  if (plan.rounds == 0 || plan.connections == 0 || plan.rows == 0 ||
      plan.rates.empty() || !(plan.phase_s > 0.0)) {
    return Status::InvalidArgument("bad plan " + path);
  }
  return plan;
}

// ---------------------------------------------------------------------
// Open-loop schedule shared by the TCP load generator and the in-process
// executor ladder: request i of phase p is due at
// PhaseStart(p) + i / rate, whatever happened to earlier requests.
struct Request {
  double due = 0.0;
  double sent = 0.0;
  double done = -1.0;  // < 0: no response
  size_t phase = 0;
  size_t row = 0;
  int status = 0;  // 0 ok, 1 error response, 2 score mismatch
  bool retry = false;
  bool warmup = false;
};

std::vector<Request> Schedule(const Plan& plan) {
  std::vector<Request> requests;
  const size_t warmup =
      static_cast<size_t>(std::llround(plan.rates[0] * kWarmupSeconds));
  for (size_t j = 0; j < warmup; ++j) {
    Request r;
    r.due = plan.start - kWarmupSeconds +
            static_cast<double>(j) / plan.rates[0];
    r.row = requests.size() % plan.rows;
    r.warmup = true;
    requests.push_back(r);
  }
  for (size_t p = 0; p < plan.phases(); ++p) {
    const double rate = plan.rates[plan.Rung(p)];
    const size_t n =
        static_cast<size_t>(std::llround(rate * plan.PhaseSeconds(p)));
    for (size_t j = 0; j < n; ++j) {
      Request r;
      r.due = plan.PhaseStart(p) + static_cast<double>(j) / rate;
      r.phase = p;
      r.row = requests.size() % plan.rows;
      requests.push_back(r);
    }
  }
  return requests;
}

void SleepUntil(double when) {
  const double now = NowSeconds();
  if (when <= now) return;
  // NowSeconds() reads steady_clock, which is CLOCK_MONOTONIC on Linux.
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(when);
  ts.tv_nsec = static_cast<long>((when - static_cast<double>(ts.tv_sec)) * 1e9);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

/// Restricts the calling thread to the last core it may run on.
void PinToLastCore() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0 || CPU_COUNT(&set) < 2) {
    return;
  }
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) last = cpu;
  }
  CPU_ZERO(&set);
  CPU_SET(last, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// Waits for a scheduled send time by yielding in a loop: a sleeping
/// thread on a virtual machine can wake milliseconds late, which would
/// make the generator, not the server, the source of the latency tail.
void SpinUntil(double when) {
  while (NowSeconds() < when) sched_yield();
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, 8) == 0; }

double FlipLowBit(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  bits ^= 1;
  std::memcpy(&value, &bits, sizeof(bits));
  return value;
}

/// Steal share of each phase of a plan, sampled by the generator thread
/// as it crosses phase boundaries (call Before() ahead of each request).
class StealMeter {
 public:
  explicit StealMeter(const Plan& plan) : shares_(plan.phases(), 0.0) {}

  void Before(const Request& r) {
    if (r.warmup || (open_ && r.phase == phase_)) return;
    Finish();
    phase_ = r.phase;
    open_ = true;
    start_ = NowSeconds();
    steal_ = HostStealSeconds();
  }

  void Finish() {
    if (!open_) return;
    const double wall = NowSeconds() - start_;
    if (wall > 0.0) {
      shares_[phase_] = (HostStealSeconds() - steal_) /
                        (wall * static_cast<double>(Cores()));
    }
    open_ = false;
  }

  const std::vector<double>& shares() const { return shares_; }

 private:
  std::vector<double> shares_;
  size_t phase_ = 0;
  bool open_ = false;
  double start_ = 0.0;
  double steal_ = 0.0;
};

/// Per-rung statistics of one ladder.
struct RungStats {
  double rate = 0.0;
  double sent = 0.0;
  double failed = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double late_p99_ms = 0.0;
  /// Responses per second of wall, from each phase's start to its last
  /// response, summed over the rung's phases.
  double answered_rps = 0.0;
  /// Phases over kStealLimit: left out of p50/p99 when the rung has an
  /// uncontended phase; their failures still count.
  double contended = 0.0;
  /// False when the generator fell behind its schedule (send lateness p99
  /// over kLateLimitMs) in most of the rung's phases.
  bool valid = true;
  /// True when most of the rung's phases show a growing backlog.
  bool backlog = false;
};

/// Latency of each request from when it was due (so a stall counts
/// against every request it delays), failure accounting and the open-loop
/// honesty checks, per rung. `steal` holds each phase's steal share.
/// The backlog and generator checks are made per phase and decided by the
/// majority of a rung's phases: an overloaded server or generator fails
/// them in every round, a host stall only in the round it hits.
std::vector<RungStats> Summarise(const std::vector<Request>& requests,
                                 const Plan& plan,
                                 const std::vector<double>& steal) {
  std::vector<std::vector<double>> latency(plan.phases());
  std::vector<RungStats> rungs(plan.rates.size());
  std::vector<std::vector<double>> late(rungs.size());
  std::vector<std::vector<double>> phase_late(plan.phases());
  std::vector<double> answered(plan.phases(), 0.0);
  std::vector<double> last_done(plan.phases(), 0.0);
  for (const Request& r : requests) {
    if (r.warmup) continue;
    RungStats& rung = rungs[plan.Rung(r.phase)];
    rung.sent += 1.0;
    if (r.done >= 0.0 && r.status == 0) {
      answered[r.phase] += 1.0;
      last_done[r.phase] = std::max(last_done[r.phase], r.done);
    }
    late[plan.Rung(r.phase)].push_back((r.sent - r.due) * 1e3);
    phase_late[r.phase].push_back((r.sent - r.due) * 1e3);
    const double ms = (r.done - r.due) * 1e3;
    if (r.done < 0.0 || r.status != 0 || ms > kTimeoutSeconds * 1e3) {
      rung.failed += 1.0;
      // A failed request misses every latency limit.
      latency[r.phase].push_back(kTimeoutSeconds * 1e3);
    } else {
      latency[r.phase].push_back(ms);
    }
  }
  std::vector<bool> has_clean(rungs.size(), false);
  for (size_t p = 0; p < plan.phases(); ++p) {
    if (steal[p] <= kStealLimit) has_clean[plan.Rung(p)] = true;
  }
  std::vector<std::vector<double>> pooled(rungs.size());
  std::vector<std::vector<double>> window_p99(rungs.size());
  std::vector<size_t> backlog_phases(rungs.size(), 0);
  std::vector<size_t> late_phases(rungs.size(), 0);
  for (size_t p = 0; p < plan.phases(); ++p) {
    const std::vector<double>& lat = latency[p];
    const size_t k = plan.Rung(p);
    // Growing backlog: the last third of the phase waits clearly longer
    // than the first third.
    const size_t third = lat.size() / 3;
    if (third > 0 &&
        Median({lat.end() - third, lat.end()}) >
            2.0 * Median({lat.begin(), lat.begin() + third}) + 0.5) {
      ++backlog_phases[k];
    }
    if (Quantile(phase_late[p], 0.99) > kLateLimitMs) ++late_phases[k];
    if (steal[p] > kStealLimit) {
      rungs[k].contended += 1.0;
      if (has_clean[k]) continue;
    }
    pooled[k].insert(pooled[k].end(), lat.begin(), lat.end());
    const size_t windows = std::max<size_t>(1, lat.size() / kWindowSamples);
    for (size_t w = 0; w < windows; ++w) {
      window_p99[k].push_back(
          Quantile({lat.begin() + w * lat.size() / windows,
                    lat.begin() + (w + 1) * lat.size() / windows},
                   0.99));
    }
  }
  std::vector<double> rung_answered(rungs.size(), 0.0);
  std::vector<double> rung_wall(rungs.size(), 0.0);
  for (size_t p = 0; p < plan.phases(); ++p) {
    if (answered[p] == 0.0) continue;
    rung_answered[plan.Rung(p)] += answered[p];
    rung_wall[plan.Rung(p)] += last_done[p] - plan.PhaseStart(p);
  }
  for (size_t k = 0; k < rungs.size(); ++k) {
    RungStats& rung = rungs[k];
    rung.rate = plan.rates[k];
    rung.answered_rps =
        rung_wall[k] > 0.0 ? rung_answered[k] / rung_wall[k] : 0.0;
    rung.p50_ms = Quantile(pooled[k], 0.5);
    rung.p99_ms = Median(window_p99[k]);
    rung.late_p99_ms = Quantile(late[k], 0.99);
    rung.valid = 2 * late_phases[k] <= plan.rounds;
    rung.backlog = 2 * backlog_phases[k] > plan.rounds;
  }
  return rungs;
}

/// A rung the generator could not keep to says nothing about the server:
/// it is never reported, but does not stop the ladder either.
double MaxOkRps(const std::vector<RungStats>& rungs) {
  double best = 0.0;
  for (const RungStats& rung : rungs) {
    if (rung.backlog || rung.failed > 0.0 || rung.p99_ms > kLatencyLimitMs) {
      break;
    }
    if (rung.valid) best = rung.answered_rps;
  }
  return best;
}

// ---------------------------------------------------------------------
// Serve-stage histograms, read through the public `metrics` verb and
// differenced between phase boundaries.
struct MetricsView {
  std::map<std::string, std::vector<double>> buckets;  // histograms
  std::map<std::string, std::vector<double>> bounds;
  std::map<std::string, double> sums;
  std::map<std::string, double> counters;
};

MetricsView ParseMetricsLine(const std::string& line) {
  MetricsView view;
  const Result<telco::JsonValue> doc = telco::ParseJson(line);
  if (!doc.ok()) return view;
  const telco::JsonValue* metrics = doc->Find("metrics");
  if (metrics == nullptr || !metrics->is_array()) return view;
  for (const telco::JsonValue& metric : metrics->items) {
    const std::string name = metric.StringOr("name", "");
    const telco::JsonValue* buckets = metric.Find("buckets");
    const telco::JsonValue* bounds = metric.Find("bounds");
    if (buckets != nullptr && bounds != nullptr) {
      for (const auto& b : buckets->items) {
        view.buckets[name].push_back(b.number);
      }
      for (const auto& b : bounds->items) view.bounds[name].push_back(b.number);
      view.sums[name] = metric.NumberOr("sum", 0.0);
    } else {
      view.counters[name] = metric.NumberOr("value", 0.0);
    }
  }
  return view;
}

/// One histogram's buckets recorded over a set of intervals between
/// metrics reads (e.g. every phase of one rung).
struct HistogramDelta {
  std::vector<double> bounds;
  std::vector<double> buckets;
  double sum = 0.0;

  void Add(const MetricsView& before, const MetricsView& after,
           const std::string& name) {
    const auto it = after.buckets.find(name);
    if (it == after.buckets.end()) return;
    bounds = after.bounds.at(name);
    buckets.resize(it->second.size(), 0.0);
    const auto prev = before.buckets.find(name);
    for (size_t i = 0; i < buckets.size(); ++i) {
      buckets[i] += it->second[i];
      if (prev != before.buckets.end() && i < prev->second.size()) {
        buckets[i] -= prev->second[i];
      }
    }
    const auto sum_after = after.sums.find(name);
    const auto sum_before = before.sums.find(name);
    if (sum_after != after.sums.end()) sum += sum_after->second;
    if (sum_before != before.sums.end()) sum -= sum_before->second;
  }

  double Count() const {
    return std::accumulate(buckets.begin(), buckets.end(), 0.0);
  }

  double Mean() const {
    const double n = Count();
    return n > 0.0 ? sum / n : 0.0;
  }

  /// q-quantile, interpolated inside the bucket holding the rank.
  double Quantile(double q) const {
    const double total = Count();
    if (total <= 0.0) return 0.0;
    const double target = q * total;
    double seen = 0.0;
    for (size_t i = 0; i < buckets.size(); ++i) {
      if (buckets[i] <= 0.0) continue;
      if (seen + buckets[i] >= target) {
        const double lower = i == 0 ? 0.0 : bounds[i - 1];
        const double upper = i < bounds.size() ? bounds[i] : lower;
        return lower + (upper - lower) * (target - seen) / buckets[i];
      }
      seen += buckets[i];
    }
    return bounds.empty() ? 0.0 : bounds.back();
  }
};

double DeltaCounter(const MetricsView& before, const MetricsView& after,
                    const std::string& name) {
  const auto value = [&](const MetricsView& view) {
    const auto it = view.counters.find(name);
    return it == view.counters.end() ? 0.0 : it->second;
  };
  return value(after) - value(before);
}

// ---------------------------------------------------------------------
// Socket helpers of the load generator.
Result<int> Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return Status::IoError("connect failed");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Sends one control line and reads one response line (blocking).
std::string Roundtrip(int fd, const std::string& line) {
  if (!SendAll(fd, line + "\n")) return "";
  std::string out;
  char chunk[1 << 16];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return out;
    out.append(chunk, static_cast<size_t>(n));
    if (out.back() == '\n') {
      out.pop_back();
      return out;
    }
  }
}

Result<std::vector<double>> ReadDoubles(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot read " + path);
  std::vector<double> out;
  double value = 0.0;
  while (in.read(reinterpret_cast<char*>(&value), sizeof(value))) {
    out.push_back(value);
  }
  return out;
}

Status WriteDoubles(const std::string& path, const std::vector<double>& v) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(double)));
  out.close();
  if (!out) return Status::IoError("cannot write " + path);
  return Status::OK();
}

// ---------------------------------------------------------------------
// Server side of one TCP ladder.
struct LadderInput {
  std::shared_ptr<const telco::ModelSnapshot> v1;
  std::shared_ptr<const telco::ModelSnapshot> v2;  // null: no swap
  const telco::Dataset* rows = nullptr;
  std::vector<double> expected;  // v1 scores, then v2 scores
  std::string dir;
};

Result<LadderInput> PrepareLadder(
    std::shared_ptr<const telco::ModelSnapshot> v1,
    std::shared_ptr<const telco::ModelSnapshot> v2,
    const telco::Dataset& rows, const std::string& dir) {
  LadderInput input;
  input.v1 = std::move(v1);
  input.v2 = std::move(v2);
  input.rows = &rows;
  input.dir = dir;
  std::filesystem::create_directories(dir);
  // Parity references: the offline ScoreBatch of each snapshot.
  telco::ThreadPool* pool = &telco::ThreadPool::Default();
  input.expected = input.v1->ScoreBatch(rows, pool);
  if (input.v2 != nullptr) {
    const std::vector<double> v2_scores = input.v2->ScoreBatch(rows, pool);
    input.expected.insert(input.expected.end(), v2_scores.begin(),
                          v2_scores.end());
  }
  TELCO_RETURN_NOT_OK(WriteDoubles(dir + "/expected.bin", input.expected));
  std::string frames;
  telco::ScoreRequest request;
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    request.id = r + 1;
    request.imsi = static_cast<int64_t>(r);
    const auto row = rows.Row(r);
    request.features.assign(row.begin(), row.end());
    frames += telco::FormatScoreRequest(request) + "\n";
  }
  TELCO_RETURN_NOT_OK(telco::WriteFileAtomic(dir + "/frames.ndjson", frames));
  return input;
}

/// Runs the TCP ladder against a fresh router + server and returns the
/// load generator's key=value output.
Result<std::map<std::string, std::string>> RunTcpLadder(
    const Options& options, const LadderInput& input, size_t rounds,
    double phase_s) {
  telco::ModelRouterOptions router_options;
  router_options.executor.max_batch_size = kMaxBatch;
  router_options.executor.max_queue_depth = kQueueDepth;
  telco::ModelRouter router(router_options);
  router.Publish("", input.v1);
  telco::TcpServerOptions tcp_options;
  telco::TcpScoringServer server(&router, tcp_options);
  TELCO_RETURN_NOT_OK(server.Start());

  Plan plan;
  plan.start = NowSeconds() + 0.2 + kWarmupSeconds;
  plan.rates.assign(std::begin(kRates), std::end(kRates));
  plan.rounds = rounds;
  plan.phase_s = phase_s;
  plan.connections = DataConnections();
  plan.rows = input.rows->num_rows();
  plan.versions = input.v2 != nullptr ? 2 : 1;
  plan.corrupt = options.corrupt;
  plan.frames = input.dir + "/frames.ndjson";
  plan.expected = input.dir + "/expected.bin";
  const std::string plan_path = input.dir + "/plan.txt";
  const std::string out_path = input.dir + "/loadgen.txt";
  std::filesystem::remove(out_path);
  TELCO_RETURN_NOT_OK(WritePlan(plan, plan_path));

  const std::string port = std::to_string(server.port());
  std::vector<std::string> args = {"perfbench_harness", "loadgen",
                                   "--plan",  plan_path,
                                   "--out",   out_path,
                                   "--port",  port};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const double cpu_start = ProcessCpuSeconds();
  pid_t pid = 0;
  if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                  environ) != 0) {
    server.Shutdown();
    return Status::IoError("cannot start the load generator");
  }
  // Samples the server's CPU time and the host's steal time at every
  // phase boundary, and publishes the second model halfway through the
  // last round's high phase.
  const size_t swap_phase = plan.phases() - kRungs + kHighRung;
  std::vector<double> cpu_at;
  std::vector<double> steal_at;
  for (size_t p = 0; p <= plan.phases(); ++p) {
    SleepUntil(plan.PhaseStart(p));
    cpu_at.push_back(ProcessCpuSeconds());
    steal_at.push_back(HostStealSeconds());
    if (input.v2 != nullptr && p == swap_phase) {
      SleepUntil(plan.PhaseStart(p) + 0.5 * plan.PhaseSeconds(p));
      router.Publish("", input.v2);
    }
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  const double server_cpu_s = ProcessCpuSeconds() - cpu_start;
  // CPU per request of each phase. A rung's figure is the median over its
  // uncontended rounds (all rounds if none is): with the host stealing
  // CPU, requests bunch into larger batches and each costs less.
  std::vector<std::vector<double>> rung_cpu(kRungs);
  std::vector<std::vector<double>> rung_cpu_clean(kRungs);
  for (size_t p = 0; p < plan.phases(); ++p) {
    const double requests = std::round(plan.rates[plan.Rung(p)] *
                                       plan.PhaseSeconds(p));
    const double cpu = (cpu_at[p + 1] - cpu_at[p]) / requests;
    const double steal = (steal_at[p + 1] - steal_at[p]) /
                         (plan.PhaseSeconds(p) * static_cast<double>(Cores()));
    rung_cpu[plan.Rung(p)].push_back(cpu);
    if (steal <= kStealLimit) rung_cpu_clean[plan.Rung(p)].push_back(cpu);
  }
  double cpu_per_score = 0.0;
  for (size_t k = 0; k < kRungs; ++k) {
    cpu_per_score += Median(rung_cpu_clean[k].empty() ? rung_cpu[k]
                                                      : rung_cpu_clean[k]) /
                     static_cast<double>(kRungs);
  }
  server.Shutdown();
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal("load generator failed");
  }
  auto kv = ReadKeyValues(out_path);
  kv["server_cpu_s"] = telco::StrFormat("%.17g", server_cpu_s);
  kv["cpu_us_per_score"] = telco::StrFormat("%.17g", 1e6 * cpu_per_score);
  return kv;
}

double Num(const std::map<std::string, std::string>& kv,
           const std::string& key) {
  const auto it = kv.find(key);
  return it == kv.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
}

/// Records a TCP ladder's results: the end-to-end serve numbers, and the
/// stage/batch/generator numbers the per-layer table uses.
void RecordTcpLadder(const std::map<std::string, std::string>& kv,
                     Results* results) {
  std::vector<RungStats> rungs(kRungs);
  double invalid = 0.0;
  double backlog = 0.0;
  for (size_t k = 0; k < kRungs; ++k) {
    const std::string p = telco::StrFormat("rung%zu.", k);
    RungStats& rung = rungs[k];
    rung.rate = Num(kv, p + "rate");
    rung.sent = Num(kv, p + "sent");
    rung.failed = Num(kv, p + "failed");
    rung.p50_ms = Num(kv, p + "p50_ms");
    rung.p99_ms = Num(kv, p + "p99_ms");
    rung.late_p99_ms = Num(kv, p + "late_p99_ms");
    rung.valid = Num(kv, p + "valid") > 0.0;
    rung.backlog = Num(kv, p + "backlog") > 0.0;
    rung.contended = Num(kv, p + "contended");
    rung.answered_rps = Num(kv, p + "answered_rps");
    invalid += rung.valid ? 0.0 : 1.0;
    backlog += rung.backlog ? 1.0 : 0.0;
    std::printf("# tcp %6.0f/s sent %6.0f failed %3.0f p50 %7.3f ms p99 "
                "%7.3f ms late-p99 %6.3f ms contended %.0f%s%s\n",
                rung.rate, rung.sent, rung.failed, rung.p50_ms, rung.p99_ms,
                rung.late_p99_ms, Num(kv, p + "contended"),
                rung.valid ? "" : " INVALID(generator behind)",
                rung.backlog ? " BACKLOG" : "");
  }
  results->Set("serve.p50_ms.low", rungs[kLowRung].p50_ms);
  results->Set("serve.p99_ms.low", rungs[kLowRung].p99_ms);
  results->Set("serve.p50_ms.high", rungs[kHighRung].p50_ms);
  results->Set("serve.p99_ms.high", rungs[kHighRung].p99_ms);
  results->Set("serve.max_ok_rps", MaxOkRps(rungs));
  // Server CPU (the whole harness process: readers, executor, pool) per
  // scheduled request: the mean over rungs of each rung's median round.
  results->Set("serve.cpu_us_per_score", Num(kv, "cpu_us_per_score"));
  std::printf("# tcp failures: timeouts %.0f unavailable %.0f mismatches "
              "%.0f; server cpu %.3f s\n",
              Num(kv, "timeouts"), Num(kv, "unavailable"),
              Num(kv, "mismatches"), Num(kv, "server_cpu_s"));
  results->Set("serve.invalid_rungs", invalid);
  results->Set("serve.backlog_rungs", backlog);
  double contended = 0.0;
  for (const RungStats& rung : rungs) contended += rung.contended;
  results->Set("serve.contended_phases", contended);
  results->Set("serve.v2_responses", Num(kv, "v2_responses"));
  results->Set("loadgen.late_p99_ms", Num(kv, "late_p99_ms"));
  results->Set("loadgen.threads", Num(kv, "threads"));
  results->Set("loadgen.connections", Num(kv, "connections"));
  for (const char* stage : {"parse", "queue_wait", "score", "write"}) {
    const std::string key = telco::StrFormat("stage.%s_p99_ms", stage);
    results->Set("serve." + key, Num(kv, key));
  }
  results->Set("serve.batch_size_mean", Num(kv, "batch_size_mean"));
  const double requests = Num(kv, "executor_requests");
  results->Set("serve.rejected_ratio",
               requests > 0.0 ? Num(kv, "executor_rejected") / requests : 0.0);
  results->Add("attempted", Num(kv, "attempted"));
  results->Add("failed", Num(kv, "failed"));
}

// ---------------------------------------------------------------------
// The same open loop through ScoringExecutor::SubmitWithCallback with no
// TCP, at the low and high rates: the executor's share of the latency.
Status RunExecutorLadder(const LadderInput& input, size_t rounds,
                         double phase_s, Results* results) {
  telco::SnapshotRegistry registry;
  registry.Publish(input.v1);
  telco::ScoringExecutorOptions executor_options;
  executor_options.max_batch_size = kMaxBatch;
  telco::ScoringExecutor executor(&registry, executor_options);

  Plan plan;
  plan.start = NowSeconds() + 0.05 + kWarmupSeconds;
  plan.rates = {kRates[kLowRung], kRates[kHighRung]};
  plan.rounds = rounds;
  plan.phase_s = phase_s;
  plan.rows = input.rows->num_rows();
  std::vector<Request> requests = Schedule(plan);
  std::vector<double> scores(requests.size(), 0.0);
  StealMeter steal(plan);
  for (size_t i = 0; i < requests.size(); ++i) {
    Request& r = requests[i];
    steal.Before(r);
    SpinUntil(r.due);
    telco::ScoreRequest request;
    request.id = i + 1;
    request.imsi = static_cast<int64_t>(r.row);
    const auto row = input.rows->Row(r.row);
    request.features.assign(row.begin(), row.end());
    r.sent = NowSeconds();
    const Status submitted = executor.SubmitWithCallback(
        std::move(request),
        [&requests, &scores, i](telco::ScoreOutcome outcome) {
          requests[i].done = NowSeconds();
          requests[i].status = outcome.status.ok() ? 0 : 1;
          scores[i] = outcome.score;
        });
    if (!submitted.ok()) r.status = 1;
  }
  steal.Finish();
  executor.Drain();
  double failed = 0.0;
  for (size_t i = 0; i < requests.size(); ++i) {
    Request& r = requests[i];
    if (r.status == 0 && !SameBits(scores[i], input.expected[r.row])) {
      r.status = 2;
    }
    if (r.warmup && r.status != 0) failed += 1.0;
  }
  const std::vector<RungStats> rungs =
      Summarise(requests, plan, steal.shares());
  results->Set("serve.exec_p50_ms.low", rungs[0].p50_ms);
  results->Set("serve.exec_p99_ms.low", rungs[0].p99_ms);
  results->Set("serve.exec_p50_ms.high", rungs[1].p50_ms);
  results->Set("serve.exec_p99_ms.high", rungs[1].p99_ms);
  results->Add("attempted", static_cast<double>(requests.size()));
  results->Add("failed", failed + rungs[0].failed + rungs[1].failed);
  return Status::OK();
}

/// ml.score64_us: one 64-row PredictProbaBatch, median over 0.2 s.
void MeasureScore64(const LadderInput& input, Results* results) {
  const size_t n = std::min<size_t>(64, input.rows->num_rows());
  const telco::FeatureMatrix matrix(input.rows->Row(0).data(), n,
                                    input.rows->num_features());
  std::vector<double> us;
  const double start = NowSeconds();
  while (us.size() < 20 || NowSeconds() - start < 0.2) {
    const double t = NowSeconds();
    const std::vector<double> scores = input.v1->forest().PredictProbaBatch(
        matrix, &telco::ThreadPool::Default());
    us.push_back((NowSeconds() - t) * 1e6);
    if (scores.size() != n) break;
  }
  results->Set("ml.score64_us", Median(us));
}

/// serve.codec.{parse,format}_ns: the wire codec on one request/response.
void MeasureCodec(const LadderInput& input, Results* results) {
  telco::ScoreRequest request;
  request.id = 1;
  request.imsi = 1;
  const auto row = input.rows->Row(0);
  request.features.assign(row.begin(), row.end());
  const std::string frame = telco::FormatScoreRequest(request);
  telco::ScoreOutcome outcome;
  outcome.score = input.expected[0];
  outcome.snapshot_version = 1;
  std::vector<double> parse_ns;
  std::vector<double> format_ns;
  size_t bytes = 0;
  for (int rep = 0; rep < 15; ++rep) {
    constexpr int kIters = 200;
    double t = NowSeconds();
    for (int i = 0; i < kIters; ++i) {
      const auto parsed = telco::ParseServeRequest(frame);
      bytes += parsed.ok() ? parsed->score.features.size() : 0;
    }
    parse_ns.push_back((NowSeconds() - t) * 1e9 / kIters);
    t = NowSeconds();
    for (int i = 0; i < kIters; ++i) {
      bytes += telco::FormatScoreResponse(request, outcome).size();
    }
    format_ns.push_back((NowSeconds() - t) * 1e9 / kIters);
  }
  results->Set("serve.codec.parse_ns", Median(parse_ns));
  results->Set("serve.codec.format_ns", Median(format_ns));
  if (bytes == 0) results->Add("failed", 1.0);
}

/// The whole serve measurement of one model pair: the TCP ladder (in a
/// traced run of serve_open_loop, once untraced and once traced) and, in
/// a traced run, the executor ladder, score64 and codec numbers.
Status MeasureServe(const Options& options, const LadderInput& input,
                    size_t rounds, double phase_s, bool timed_phase,
                    Tracer* tracer, Results* results) {
  if (timed_phase && options.trace) {
    // Untraced ladder first: its wall is the base of trace.overhead_s.
    const double start = NowSeconds();
    TELCO_ASSIGN_OR_RETURN(const auto base,
                           RunTcpLadder(options, input, rounds, phase_s));
    const double base_wall = NowSeconds() - start;
    Results untraced;
    RecordTcpLadder(base, &untraced);
    results->Add("attempted", untraced.Get("attempted"));
    results->Add("failed", untraced.Get("failed"));
    const double traced_start = NowSeconds();
    const int root = tracer->Begin("serve_open_loop.ladder");
    Result<std::map<std::string, std::string>> traced = [&] {
      ScopedSpan span(tracer, "serve.tcp_ladder");
      return RunTcpLadder(options, input, rounds, phase_s);
    }();
    tracer->End(root);
    TELCO_RETURN_NOT_OK(traced.status());
    const double wall = NowSeconds() - traced_start;
    results->Set("trace.overhead_s", wall - base_wall);
    results->Set("trace.self_coverage",
                 1.0 - tracer->SelfSeconds(root) / wall);
    RecordTcpLadder(*traced, results);
  } else {
    Result<std::map<std::string, std::string>> kv = [&] {
      ScopedSpan span(tracer, "serve.tcp_ladder");
      return RunTcpLadder(options, input, rounds, phase_s);
    }();
    TELCO_RETURN_NOT_OK(kv.status());
    RecordTcpLadder(*kv, results);
  }
  if (!options.trace) return Status::OK();
  {
    ScopedSpan span(tracer, "serve.executor_ladder");
    TELCO_RETURN_NOT_OK(
        RunExecutorLadder(input, kProbeRounds, kProbeLowPhaseSeconds,
                          results));
  }
  ScopedSpan span(tracer, "serve.micro");
  MeasureScore64(input, results);
  MeasureCodec(input, results);
  return Status::OK();
}

// Request rows of serve_open_loop: the predict month's labelled feature
// rows (row-major doubles) with their labels.
Status SaveRows(const LabelledMonth& month, const std::string& dir) {
  std::vector<double> values;
  std::vector<double> labels;
  for (size_t r = 0; r < month.data.num_rows(); ++r) {
    const auto row = month.data.Row(r);
    values.insert(values.end(), row.begin(), row.end());
    labels.push_back(month.data.label(r));
  }
  TELCO_RETURN_NOT_OK(WriteDoubles(dir + "/rows.bin", values));
  return WriteDoubles(dir + "/labels.bin", labels);
}

Result<telco::Dataset> LoadRows(const std::string& dir,
                                std::vector<std::string> columns) {
  TELCO_ASSIGN_OR_RETURN(const std::vector<double> values,
                         ReadDoubles(dir + "/rows.bin"));
  TELCO_ASSIGN_OR_RETURN(const std::vector<double> labels,
                         ReadDoubles(dir + "/labels.bin"));
  const size_t width = columns.size();
  if (width == 0 || values.size() != labels.size() * width) {
    return Status::IoError("request rows do not match the model schema");
  }
  telco::Dataset rows(std::move(columns));
  for (size_t r = 0; r < labels.size(); ++r) {
    rows.AddRow({values.data() + r * width, width},
                static_cast<int>(labels[r]));
  }
  return rows;
}

}  // namespace

Status SetupServe(const Options& options, Tracer* tracer, Results* results) {
  const std::string warehouse = options.work + "/warehouse";
  TELCO_RETURN_NOT_OK(GenerateWarehouse(options, warehouse, tracer, results));
  TELCO_ASSIGN_OR_RETURN(auto catalog,
                         LoadCatalog(warehouse, tracer, results));
  telco::WideTableBuilder builder(catalog.get());
  telco::WideTable train_wide;
  telco::WideTable test_wide;
  TELCO_RETURN_NOT_OK(
      BuildWideTables(&builder, tracer, results, &train_wide, &test_wide));
  const std::vector<std::string> columns = train_wide.AllFeatureColumns();
  double start = NowSeconds();
  Result<std::unordered_map<int64_t, int>> train_labels = [&] {
    ScopedSpan span(tracer, "churn.labels");
    return telco::LoadChurnLabels(*catalog, kTrainMonth);
  }();
  TELCO_RETURN_NOT_OK(train_labels.status());
  Result<std::unordered_map<int64_t, int>> test_labels = [&] {
    ScopedSpan span(tracer, "churn.labels");
    return telco::LoadChurnLabels(*catalog, kPredictMonth);
  }();
  TELCO_RETURN_NOT_OK(test_labels.status());
  results->Set("churn.labels_s", NowSeconds() - start);
  TELCO_ASSIGN_OR_RETURN(
      const LabelledMonth train,
      JoinLabels(*train_wide.table, columns, *train_labels));
  TELCO_ASSIGN_OR_RETURN(const LabelledMonth test,
                         JoinLabels(*test_wide.table, columns, *test_labels));

  // Two consecutive monthly models of the paper's forest: v1 serves
  // first, v2 (a refit with another seed) is published mid-phase.
  const std::string dir = ServeDir(options);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::string sidecar;
  for (const std::string& name : columns) sidecar += name + "\n";
  for (int version = 1; version <= 2; ++version) {
    telco::ChurnModelOptions model_options;
    model_options.rf = telco::RandomForestOptions{};
    model_options.rf.seed = options.seed * 2 + static_cast<uint64_t>(version);
    telco::ChurnModel model(model_options);
    start = NowSeconds();
    {
      ScopedSpan span(tracer, "ml.fit");
      TELCO_RETURN_NOT_OK(model.Train(train.data));
    }
    const double fit_s = NowSeconds() - start;
    const std::string path = telco::StrFormat("%s/v%d.model", dir.c_str(),
                                              version);
    TELCO_RETURN_NOT_OK(telco::SaveRandomForest(*model.forest(), path));
    TELCO_RETURN_NOT_OK(telco::WriteFileAtomic(path + ".features", sidecar));
    if (version == 1) {
      results->Set("ml.fit_s", fit_s);
      results->Set("ml.fit_tree_rows_per_s",
                   static_cast<double>(model_options.rf.num_trees) *
                       static_cast<double>(train.data.num_rows()) / fit_s);
      start = NowSeconds();
      {
        ScopedSpan span(tracer, "ml.score");
        const std::vector<double> scores = model.ScoreAll(test.data);
        if (scores.size() != test.data.num_rows()) {
          return Status::Internal("ScoreAll lost rows");
        }
      }
      results->Set("ml.score_rows_per_s",
                   static_cast<double>(test.data.num_rows()) /
                       (NowSeconds() - start));
    }
  }
  return SaveRows(test, dir);
}

Status RunServe(const Options& options, Tracer* tracer, Results* results) {
  const std::string dir = ServeDir(options);
  TELCO_ASSIGN_OR_RETURN(auto v1,
                         telco::ModelSnapshot::LoadFromFile(dir + "/v1.model"));
  TELCO_ASSIGN_OR_RETURN(auto v2,
                         telco::ModelSnapshot::LoadFromFile(dir + "/v2.model"));
  TELCO_ASSIGN_OR_RETURN(const telco::Dataset rows,
                         LoadRows(dir, v1->feature_names()));
  TELCO_ASSIGN_OR_RETURN(const LadderInput input,
                         PrepareLadder(v1, v2, rows, dir + "/ladder"));

  ResetPeakRss();
  const double cpu_start = ProcessCpuSeconds();
  const double start = NowSeconds();
  // Low-rate phase length that makes the ladder last options.seconds.
  double rate_share = 0.0;
  for (const double rate : kRates) rate_share += kRates[0] / rate;
  const double round_s = options.seconds / static_cast<double>(kServeRounds);
  const double phase_s = std::max(0.2, round_s / rate_share);
  TELCO_RETURN_NOT_OK(MeasureServe(options, input, kServeRounds, phase_s,
                                   true, tracer, results));
  const double wall = NowSeconds() - start;
  if (!options.trace) {
    results->Set("proc.cpu_per_wall",
                 (ProcessCpuSeconds() - cpu_start) / wall);
    results->Set("peak_rss_mb", PeakRssMb());
  } else {
    results->Set("proc.cpu_per_wall",
                 (ProcessCpuSeconds() - cpu_start) / wall);
  }
  if (results->Get("serve.v2_responses") <= 0.0) {
    std::printf("# the second model never served a response\n");
    results->Add("failed", 1.0);
  }

  // The served model's ranked list of the predict month: its quality, and
  // the offline batch ranking rate of the 500-tree forest (median of
  // repeats over at least 2 s, so a short host stall moves few of them).
  std::vector<double> rates;
  std::vector<double> scores;
  std::vector<size_t> order(rows.num_rows());
  const double rank_start = NowSeconds();
  while (rates.size() < 15 || NowSeconds() - rank_start < 2.0) {
    const double t = NowSeconds();
    scores = v1->ScoreBatch(rows, &telco::ThreadPool::Default());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return scores[a] > scores[b];
    });
    rates.push_back(static_cast<double>(rows.num_rows()) / (NowSeconds() - t));
  }
  results->Set("batch.customers_per_s", Median(rates));
  std::vector<int64_t> ranked_rows;
  std::vector<double> ranked_scores;
  for (const size_t i : order) {
    ranked_rows.push_back(static_cast<int64_t>(i));
    ranked_scores.push_back(scores[i]);
  }
  std::printf("fingerprint=%016llx\n",
              static_cast<unsigned long long>(
                  Fingerprint(ranked_rows, ranked_scores)));
  std::vector<telco::ScoredInstance> instances;
  for (size_t i = 0; i < scores.size(); ++i) {
    if (!SameBits(scores[i], input.expected[i])) results->Add("failed", 1.0);
    instances.push_back({scores[i], rows.label(i) == 1});
  }
  results->Set("auc", telco::Auc(instances));
  results->Set("pr_auc", telco::PrAuc(instances));
  return Status::OK();
}

Status ServeProbe(const Options& options,
                  std::shared_ptr<const telco::ModelSnapshot> model,
                  const telco::Dataset& rows, Tracer* tracer,
                  Results* results) {
  TELCO_ASSIGN_OR_RETURN(
      const LadderInput input,
      PrepareLadder(std::move(model), nullptr, rows, options.work + "/probe"));
  ScopedSpan span(tracer, "serve.probe");
  return MeasureServe(options, input, kProbeRounds, kProbeLowPhaseSeconds,
                      false, tracer, results);
}

// ---------------------------------------------------------------------
// Load generator process.
int RunLoadGenerator(const Options& options) {
  const Result<Plan> parsed = ReadPlan(options.plan);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const Plan& plan = *parsed;
  std::vector<std::string> frames;
  {
    std::ifstream in(plan.frames);
    std::string line;
    while (std::getline(in, line)) frames.push_back(line + "\n");
  }
  const Result<std::vector<double>> expected = ReadDoubles(plan.expected);
  if (!expected.ok() || frames.size() != plan.rows ||
      expected->size() != plan.rows * static_cast<size_t>(plan.versions)) {
    std::fprintf(stderr, "load generator inputs do not match the plan\n");
    return 2;
  }
  std::vector<Request> requests = Schedule(plan);
  const size_t conns = plan.connections;
  std::vector<int> fds;
  for (size_t c = 0; c <= conns; ++c) {  // the last one is control
    const Result<int> fd = Connect(options.port);
    if (!fd.ok()) {
      std::fprintf(stderr, "%s\n", fd.status().ToString().c_str());
      return 2;
    }
    fds.push_back(*fd);
  }
  const int control = fds[conns];

  // The `metrics` verb is read on the control connection before the
  // warm-up and after the last response: the serve-stage numbers cover
  // the whole ladder, and no read disturbs a phase.
  const MetricsView before =
      ParseMetricsLine(Roundtrip(control, "{\"cmd\":\"metrics\"}"));

  // One thread, spinning on the last core, sends every request at its due
  // time and polls the data connections in between, so neither a send nor
  // a receive timestamp waits for a sleeping thread to wake (on a virtual
  // machine that can take milliseconds). Responses on a connection come
  // back in request order, and request i goes out on connection i % conns,
  // so the k-th response on connection c answers request c + k * conns.
  PinToLastCore();
  const int ep = epoll_create1(0);
  for (size_t c = 0; c < conns; ++c) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = c;
    epoll_ctl(ep, EPOLL_CTL_ADD, fds[c], &ev);
  }
  std::vector<std::string> buffers(conns);
  std::vector<size_t> next(conns, 0);
  size_t received = 0;
  bool protocol_error = false;
  bool corrupted = false;
  double v2_responses = 0.0;
  char chunk[1 << 16];
  epoll_event events[16];
  // Reads whatever has arrived; false when nothing had.
  const auto receive = [&] {
    const int n = epoll_wait(ep, events, 16, 0);
    for (int e = 0; e < n; ++e) {
      const size_t c = events[e].data.u64;
      const ssize_t got = ::recv(fds[c], chunk, sizeof(chunk), MSG_DONTWAIT);
      if (got <= 0) {
        if (got == 0) epoll_ctl(ep, EPOLL_CTL_DEL, fds[c], nullptr);
        continue;
      }
      const double now = NowSeconds();
      std::string& buf = buffers[c];
      buf.append(chunk, static_cast<size_t>(got));
      size_t pos = 0;
      for (size_t nl; (nl = buf.find('\n', pos)) != std::string::npos;
           pos = nl + 1) {
        const size_t index = c + next[c]++ * conns;
        if (index >= requests.size()) {
          protocol_error = true;
          continue;
        }
        Request& r = requests[index];
        r.done = now;
        const std::string line = buf.substr(pos, nl - pos);
        const char* score_at = std::strstr(line.c_str(), "\"score\":");
        const char* version_at = std::strstr(line.c_str(), "\"snapshot\":");
        if (score_at == nullptr || version_at == nullptr) {
          r.status = 1;
          r.retry = line.find("\"retry\":true") != std::string::npos;
        } else {
          double score = std::strtod(score_at + 8, nullptr);
          const long version = std::strtol(version_at + 11, nullptr, 10);
          if (plan.corrupt && !corrupted) {
            score = FlipLowBit(score);
            corrupted = true;
          }
          if (version < 1 || version > plan.versions ||
              !SameBits(score,
                        (*expected)[(version - 1) * plan.rows + r.row])) {
            r.status = 2;
          }
          if (version == 2) v2_responses += 1.0;
        }
        ++received;
      }
      buf.erase(0, pos);
    }
    return n > 0;
  };

  // The open-loop schedule: whatever is due goes out in one send per
  // connection.
  const double deadline =
      (requests.empty() ? plan.start : requests.back().due) +
      kTimeoutSeconds + 0.5;
  std::vector<std::string> out(conns);
  StealMeter steal(plan);
  bool send_failed = false;
  size_t i = 0;
  while (received < requests.size()) {
    const double now = NowSeconds();
    if (i < requests.size() && requests[i].due <= now) {
      steal.Before(requests[i]);
      size_t j = i;
      while (j < requests.size() && requests[j].due <= now &&
             requests[j].phase == requests[i].phase &&
             requests[j].warmup == requests[i].warmup) {
        requests[j].sent = now;
        out[j % conns] += frames[requests[j].row];
        ++j;
      }
      for (size_t c = 0; c < conns; ++c) {
        if (!out[c].empty() && !SendAll(fds[c], out[c])) send_failed = true;
        out[c].clear();
      }
      i = j;
      if (i == requests.size()) steal.Finish();
    } else if (i == requests.size() && now > deadline) {
      break;
    }
    if (!receive()) sched_yield();
  }
  ::close(ep);
  const MetricsView after =
      ParseMetricsLine(Roundtrip(control, "{\"cmd\":\"metrics\"}"));
  for (const int fd : fds) ::close(fd);

  const std::vector<RungStats> rungs =
      Summarise(requests, plan, steal.shares());
  std::vector<double> late;
  double failed = 0.0;
  double timeouts = 0.0;
  double rejected = 0.0;
  double mismatches = 0.0;
  for (const Request& r : requests) {
    if (!r.warmup) late.push_back((r.sent - r.due) * 1e3);
    if (r.warmup && (r.done < 0.0 || r.status != 0)) failed += 1.0;
    if (r.done < 0.0) timeouts += 1.0;
    if (r.status == 1 && r.retry) rejected += 1.0;
    if (r.status == 2) mismatches += 1.0;
  }
  for (const RungStats& rung : rungs) failed += rung.failed;
  if (send_failed || protocol_error) failed += 1.0;

  std::FILE* f = std::fopen(options.out.c_str(), "w");
  if (f == nullptr) return 2;
  std::fprintf(f, "attempted=%zu\nfailed=%.0f\ntimeouts=%.0f\n",
               requests.size(), failed, timeouts);
  std::fprintf(f, "unavailable=%.0f\nmismatches=%.0f\nv2_responses=%.0f\n",
               rejected, mismatches, v2_responses);
  std::fprintf(f, "threads=1\nconnections=%zu\nlate_p99_ms=%.17g\n",
               conns + 1, Quantile(late, 0.99));
  std::fprintf(f, "executor_requests=%.17g\nexecutor_rejected=%.17g\n",
               DeltaCounter(before, after, "serve.executor.requests"),
               DeltaCounter(before, after, "serve.executor.rejected"));
  const auto over_ladder = [&](const std::string& name) {
    HistogramDelta delta;
    delta.Add(before, after, name);
    return delta;
  };
  for (const char* stage : {"parse", "queue_wait", "score", "write"}) {
    std::fprintf(
        f, "stage.%s_p99_ms=%.17g\n", stage,
        1e3 * over_ladder(telco::StrFormat("serve.request.%s_seconds", stage))
                  .Quantile(0.99));
  }
  std::fprintf(f, "batch_size_mean=%.17g\n",
               over_ladder("serve.executor.batch_size").Mean());
  for (size_t k = 0; k < rungs.size(); ++k) {
    const RungStats& r = rungs[k];
    std::fprintf(f,
                 "rung%zu.rate=%.17g\nrung%zu.sent=%.0f\n"
                 "rung%zu.failed=%.0f\nrung%zu.p50_ms=%.17g\n"
                 "rung%zu.p99_ms=%.17g\nrung%zu.late_p99_ms=%.17g\n"
                 "rung%zu.valid=%d\nrung%zu.backlog=%d\n"
                 "rung%zu.contended=%.0f\nrung%zu.answered_rps=%.17g\n",
                 k, r.rate, k, r.sent, k, r.failed, k, r.p50_ms, k, r.p99_ms,
                 k, r.late_p99_ms, k, r.valid ? 1 : 0, k, r.backlog ? 1 : 0,
                 k, r.contended, k, r.answered_rps);
  }
  std::fclose(f);
  return 0;
}

}  // namespace perfbench
