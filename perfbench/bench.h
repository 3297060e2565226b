// Shared pieces of the end-to-end benchmark (perfbench/README.md): the
// workload table, the result report, latency samples and the in-memory
// span log. Everything here lives in the benchmark's own files; the library
// is only called through its public headers.

#ifndef DKC_PERFBENCH_BENCH_H_
#define DKC_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dynamic/workload.h"
#include "graph/graph.h"
#include "store/store.h"
#include "util/thread_pool.h"

namespace dkc::perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One benchmark workload: a Watts–Strogatz input graph (n, degree, beta)
/// and k. Every run replays a churn stream on it.
struct WorkloadSpec {
  const char* name;
  int k;
  NodeId n;
  Count degree;
  double beta;
};

const WorkloadSpec* FindWorkload(const std::string& name);
std::string WorkloadNames();

struct Input {
  Graph graph;
  std::vector<UpdateOp> stream;
};

/// The workload's graph and churn stream: a deterministic function of
/// (spec, seed, updates).
Input MakeInput(const WorkloadSpec& spec, uint64_t seed, size_t updates);

/// True iff the two solutions hold the same cliques in the same order.
bool SameCliques(const CliqueStore& a, const CliqueStore& b);

/// Latency or duration samples of one kind.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  const std::vector<double>& values() const { return values_; }
  double Sum() const;
  double Median() const { return Quantile(0.5); }
  /// Nearest-rank quantile (0 when empty).
  double Quantile(double q) const;
  /// True iff at least ten samples lie beyond the q-quantile, the least
  /// a tail percentile is reported on.
  bool HasTail(double q) const {
    return static_cast<double>(values_.size()) * (1.0 - q) >= 10.0;
  }

 private:
  std::vector<double> values_;
};

/// "median of <n> <what>:" and every sample, for a metric's note.
std::string MedianNote(const char* what, const Samples& samples);

/// Spans recorded in memory around calls into the library and written out
/// as Chrome trace events when the run ends. Disabled, Begin/End record
/// nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (0 when disabled). `parent` 0 = none.
  uint64_t Begin(const char* name, uint64_t parent);
  /// Closes span `id`; returns its duration in ms (0 when disabled).
  double End(uint64_t id);

  /// Runs `fn` inside a span and returns the span's duration in ms.
  template <typename F>
  double Time(const char* name, uint64_t parent, F&& fn) {
    const uint64_t id = Begin(name, parent);
    fn();
    return End(id);
  }

  /// Writes the spans as a Chrome trace-event JSON array.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint64_t parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// The run's metrics and its operation tally.
class Report {
 public:
  /// Adds a metric; `note` is printed beside it (e.g. its sample count).
  /// A value that is not finite counts as a failed check.
  void EndToEnd(std::string name, double value, std::string unit,
                std::string note = "") {
    Add(std::move(name), value, std::move(unit), std::move(note), true);
  }
  void Layer(std::string name, double value, std::string unit,
             std::string note = "") {
    Add(std::move(name), value, std::move(unit), std::move(note), false);
  }

  /// Counts one attempted operation or check; a failure is printed to
  /// stderr with `what`.
  void Check(bool ok, const std::string& what);
  /// Counts `n` attempted operations of which `failed` failed.
  void Count(uint64_t n, uint64_t failed, const std::string& what);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// Prints every metric as "name = value unit" and, last, the one-line
  /// JSON result holding the end-to-end metrics (trace off) or the
  /// per-layer ones (trace on).
  void Print(bool trace) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string note;
    bool end_to_end;
  };
  void Add(std::string name, double value, std::string unit, std::string note,
           bool end_to_end);

  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Tracing accounting summed over a run's traced parent operations (a
/// solve, an epoch commit, a recovery).
struct TraceTotals {
  double untraced_ms = 0.0;  // the parent operations, run untraced
  double traced_ms = 0.0;    // the same operations, run traced
  double covered_ms = 0.0;   // top-level layer spans inside the traced ones
};

struct RunConfig {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string dir;  // scratch directory for the store's files
};

/// Static solves: LP and HG through Solve(), serial and on `pool`. Warmup()
/// solves once and verifies; Rounds() runs several times over a run, so
/// that the medians draw on rounds spread across it. Every call gets the
/// same graph (regenerated from the same seed). Traced, each solve is also
/// run as its decomposition into preprocessing and the method's solver.
class SolveBench {
 public:
  SolveBench(const RunConfig& config, ThreadPool* pool, SpanLog* spans,
             TraceTotals* totals, Report* report);

  /// One untimed round; its serial solutions, verified disjoint and
  /// maximal, are the references every later solve must reproduce.
  void Warmup(const Graph& g);
  /// Timed rounds for about `budget_s` seconds, at least `min_rounds`.
  void Rounds(const Graph& g, double budget_s, int min_rounds);
  /// Reports the metrics.
  void Finish();

 private:
  SolverOptions Options(size_t variant) const;
  bool Matches(size_t variant, const CliqueStore& set) const;

  const RunConfig& config_;
  ThreadPool* pool_;
  SpanLog* spans_;
  TraceTotals* totals_;
  Report* report_;
  std::vector<std::optional<CliqueStore>> reference_;
  std::vector<Samples> wall_s_;
  int rounds_ = 0;
  // Traced only.
  Samples preprocess_ms_, order_ms_, dag_ms_, score_t1_, score_t4_, lp_t1_,
      lp_t4_, lp_heap_t1_, hg_t1_, hg_t4_;
  PreprocessStats pre_stats_;
  Count kcliques_ = 0;
};

/// The serve loop's store configuration for a stream of `updates` updates:
/// no engine pool, no fsync per epoch, and auto-checkpoints after 40% and
/// 80% of the stream, which leave a WAL tail for recovery to replay.
StoreOptions ServeStoreOptions(const WorkloadSpec& spec, size_t updates);

inline constexpr int kStreamChunks = 8;
inline constexpr int kRecoveries = 9;
/// How often RunServePhase calls its `interlude`.
inline constexpr int kServeInterludes = kStreamChunks + kRecoveries - 1;

/// The durable serve loop on `store` (fresh from DurableStore::Create on
/// input.graph): the open-loop stream with two closed-loop readers, served
/// in kStreamChunks chunks, then kRecoveries recoveries. It runs
/// `interlude` before each chunk and between recoveries. Traced, the stream
/// is replayed once more on a fresh store with side calls into the store's
/// inner layers.
void RunServePhase(const RunConfig& config, const Input& input,
                   DurableStore store, const std::function<void()>& interlude,
                   SpanLog* spans, TraceTotals* totals, Report* report);

}  // namespace dkc::perfbench

#endif  // DKC_PERFBENCH_BENCH_H_
