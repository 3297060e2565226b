// dkc_perfbench: one workload of the end-to-end benchmark per process.
//
//   dkc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --dir <scratch dir> [--trace-out <spans.json>]
//
// A run sets the workload up nine times (input generation plus
// DurableStore::Create; setup_s is the median), streams half of --seconds
// worth of updates through the durable serve loop and recovers the store,
// and spends the other half on static solves, in blocks between the
// stream's chunks and between the recoveries. It prints every metric by
// name and unit, and last one JSON line: the end-to-end metrics with
// --trace 0, the per-layer ones with --trace 1. It exits 1 if any output
// failed its check.

#include <malloc.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>

#include "bench.h"
#include "util/cpu.h"
#include "util/memory.h"

namespace dkc::perfbench {
namespace {

constexpr int kSetups = 9;
constexpr int kPoolThreads = 4;
constexpr double kUpdatesPerSecond = 1000.0;
// Where glibc's dynamic thresholds settle in a long-running process: the
// mmap threshold's ceiling, and twice that for trimming.
constexpr int kMmapThreshold = 32 << 20;
constexpr int kTrimThreshold = 64 << 20;

// Numbers from a debug build, or from one with the syscall fault-injection
// seam compiled in (it adds work to every store syscall), are not reported.
const char* BuildRefusal() {
#ifdef DKC_FAULT_INJECTION
  return "DKC_FAULT_INJECTION is compiled in";
#endif
#ifndef NDEBUG
  return "assertions are enabled (NDEBUG is not defined)";
#endif
  if (std::string(DKC_PERFBENCH_BUILD_TYPE) != "Release") {
    return "the build type is not Release";
  }
  return nullptr;
}

void PrintProvenance(const RunConfig& config, const Input& input,
                     const DurableStore& store, size_t updates) {
  const Graph& g = input.graph;
  std::printf(
      "provenance: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"n\": %u, \"m\": %llu, \"k\": %d, "
      "\"stream_updates\": %zu, \"input_bytes\": %lld, \"state_bytes\": %lld, "
      "\"snapshot_bytes\": %llu, \"llc_bytes\": %ld, \"nproc\": %u, "
      "\"pool_threads\": %d, \"simd\": \"%s\", \"build_type\": \"%s\", "
      "\"fault_injection\": false, \"compiler\": \"%s\"}\n",
      config.spec->name, static_cast<unsigned long long>(config.seed),
      config.seconds, config.trace ? 1 : 0, g.num_nodes(),
      static_cast<unsigned long long>(g.num_edges()), config.spec->k, updates,
      static_cast<long long>(g.MemoryBytes()),
      static_cast<long long>(store.solver().MemoryBytes()),
      static_cast<unsigned long long>(
          std::filesystem::file_size(store.snapshot_path())),
      sysconf(_SC_LEVEL3_CACHE_SIZE), std::thread::hardware_concurrency(),
      kPoolThreads, SimdLevelName(ActiveSimdLevel()), DKC_PERFBENCH_BUILD_TYPE,
      __VERSION__);
  std::fflush(stdout);
}

int Usage(const char* error) {
  std::fprintf(stderr,
               "%s\nusage: dkc_perfbench --workload <%s> --seed <n> "
               "--seconds <s> --trace <0|1> --dir <dir> [--trace-out <file>]\n",
               error, WorkloadNames().c_str());
  return 2;
}

int Run(int argc, char** argv) {
  RunConfig config;
  std::string workload, trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      config.trace = value == "1";
    } else if (key == "--dir") {
      config.dir = value;
    } else if (key == "--trace-out") {
      trace_out = value;
    } else {
      return Usage(("unknown flag " + key).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  config.spec = FindWorkload(workload);
  if (config.spec == nullptr) return Usage("unknown or missing --workload");
  if (config.dir.empty()) return Usage("missing --dir");
  if (!(config.seconds > 0)) return Usage("--seconds must be positive");
  if (const char* refusal = BuildRefusal()) {
    std::fprintf(stderr, "refusing to report numbers: %s\n", refusal);
    return 3;
  }
  std::filesystem::create_directories(config.dir);
  // glibc raises its mmap and trim thresholds as mapped blocks are freed,
  // so whether a large buffer is mapped fresh (and page-faulted in) or
  // reused from a heap depends on the order of earlier frees across
  // threads, and peak RSS and large-allocation costs wander from run to
  // run. Pinning both where a long-running process ends up makes them
  // reproducible. For the same reason the run hands freed heap pages back
  // (malloc_trim) between its phases, outside every timed region, so that a
  // phase's peak does not depend on the heap an earlier one left.
  if (mallopt(M_MMAP_THRESHOLD, kMmapThreshold) != 1 ||
      mallopt(M_TRIM_THRESHOLD, kTrimThreshold) != 1) {
    std::fprintf(stderr, "mallopt failed\n");
    return 2;
  }

  Report report;
  SpanLog spans(config.trace);
  TraceTotals totals;
  // Whole 5-update windows.
  const size_t updates =
      static_cast<size_t>(config.seconds / 2 * kUpdatesPerSecond) / 5 * 5;
  const StoreOptions store_options = ServeStoreOptions(*config.spec, updates);
  const std::string snapshot_path = config.dir + "/store.snap";
  const std::string wal_path = config.dir + "/store.wal";

  // Half of --seconds goes to solve rounds, in blocks between the serve
  // phase's chunks (at least one round each), so that the solve and the
  // serve medians both draw on samples taken across the whole run.
  ThreadPool pool(kPoolThreads);
  SolveBench solves(config, &pool, &spans, &totals, &report);
  const double block_s = config.seconds / 2 / kServeInterludes;
  Samples setup_s, generate_s, create_s;
  std::optional<Input> input;
  std::optional<DurableStore> store;
  for (int i = 0; i < kSetups; ++i) {
    store.reset();
    input.reset();
    malloc_trim(0);
    const Clock::time_point t0 = Clock::now();
    input.emplace(MakeInput(*config.spec, config.seed, updates));
    const Clock::time_point t1 = Clock::now();
    auto created = DurableStore::Create(input->graph, snapshot_path, wal_path,
                                        store_options);
    const Clock::time_point t2 = Clock::now();
    report.Check(created.ok(), "DurableStore::Create: " +
                                   created.status().ToString());
    if (!created.ok()) break;
    store.emplace(std::move(created).value());
    generate_s.Add(MillisBetween(t0, t1) / 1e3);
    create_s.Add(MillisBetween(t1, t2) / 1e3);
    setup_s.Add(MillisBetween(t0, t2) / 1e3);
    if (i == 0) {
      PrintProvenance(config, *input, *store, updates);
      solves.Warmup(input->graph);
    }
  }

  if (store) {
    malloc_trim(0);
    RunServePhase(
        config, *input, std::move(*store),
        [&] {
          malloc_trim(0);
          solves.Rounds(input->graph, block_s, 1);
        },
        &spans, &totals, &report);
    store.reset();
    solves.Finish();
  }

  const std::string setup_note =
      "median of " + std::to_string(setup_s.size()) + " setups";
  report.EndToEnd("setup_s", setup_s.Median(), "s", setup_note);
  report.EndToEnd("peak_rss_mb", static_cast<double>(PeakRssBytes()) / 1e6,
                  "MB");
  report.Layer("setup.generate_s", generate_s.Median(), "s", setup_note);
  report.Layer("setup.create_s", create_s.Median(), "s", setup_note);
  if (config.trace) {
    report.Layer("trace.coverage",
                 totals.untraced_ms > 0 ? totals.covered_ms / totals.untraced_ms
                                        : 0.0,
                 "ratio", "top-level layer spans / untraced wall time");
    report.Layer("trace.overhead_pct",
                 totals.untraced_ms > 0
                     ? (totals.traced_ms - totals.untraced_ms) /
                           totals.untraced_ms * 100.0
                     : 0.0,
                 "%", "traced minus untraced parent operations");
    if (!trace_out.empty()) {
      report.Check(spans.Write(trace_out), "writing spans to " + trace_out);
    }
  }
  std::filesystem::remove_all(config.dir);
  report.Print(config.trace);
  return report.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dkc::perfbench

int main(int argc, char** argv) { return dkc::perfbench::Run(argc, argv); }
