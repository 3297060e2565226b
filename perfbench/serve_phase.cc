// The durable serve loop: an open-loop churn stream at 1,000 updates/s cut
// into 5 ms epochs, each committed through DurableStore::ApplyBatch, while
// two closed-loop readers look up teams on the published view; then the
// store is dropped without a final checkpoint and recovered. The stream is
// served in chunks with solve blocks between them, and the recoveries
// likewise, so that every median draws on samples from the whole run.
//
// Traced, the same stream is replayed on a fresh store, and each epoch also
// makes side calls on the same input into the layers ApplyBatch nests:
// DynamicSolver::ValidateBatch, WalWriter::AppendGroup on a side log with
// fsync, BuildSolutionView on the committed state, and WriteSnapshot after
// an auto-checkpoint. What the side calls do not cover is reported as the
// engine's own time.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <string>
#include <span>
#include <stop_token>
#include <thread>
#include <vector>

#include "bench.h"
#include "dynamic/solution_view.h"
#include "store/snapshot.h"
#include "store/wal.h"

namespace dkc::perfbench {
namespace {

constexpr size_t kWindowOps = 5;  // 5 ms windows at 1,000 updates/s
constexpr auto kWindow = std::chrono::milliseconds(5);
constexpr int kReaders = 2;
constexpr int kUsersPerLookup = 64;
constexpr uint64_t kTopKEvery = 100;
constexpr size_t kTopK = 10;
// Latency samples each reader keeps per chunk (a uniform reservoir over the
// chunk's ingest), so that the memory they take does not grow with the run.
constexpr size_t kReservoir = 1 << 15;

// A uniform sample of at most kReservoir values (Algorithm R).
struct Reservoir {
  std::vector<float> kept;
  uint64_t seen = 0;

  void Add(float v, Rng& rng) {
    ++seen;
    if (kept.size() < kReservoir) {
      kept.push_back(v);
    } else if (const uint64_t j = rng.NextBounded(seen); j < kReservoir) {
      kept[j] = v;
    }
  }
};

struct ReaderStats {
  Reservoir lookup_us;
  Reservoir topk_us;
  uint64_t reads = 0;
  uint64_t bad_reads = 0;
  uint64_t views_checked = 0;
  uint64_t bad_views = 0;
};

// What the readers share with the writer.
struct ReaderShared {
  ReaderShared(const DurableStore* store, NodeId n, size_t epochs)
      : store(store), n(n), claimed(epochs + 1) {}

  const DurableStore* store;
  NodeId n;
  std::atomic<bool> ingesting{false};  // keep latencies while set
  // One flag per epoch the stream can publish (0 = the store's initial
  // view): the first reader to acquire a view checks it.
  std::vector<std::atomic<bool>> claimed;
};

// Closed-loop team lookups: acquire the published view, then GroupOf and
// GroupMembers for kUsersPerLookup random users; every kTopKEvery-th read
// also ranks the top groups. Every view a reader acquires is checked with
// Consistent() once, by the first reader to see it, outside the timed
// lookups.
void ReaderLoop(std::stop_token stop, ReaderShared* shared, uint64_t seed,
                ReaderStats* out) {
  Rng rng(seed);
  Rng sample_rng = rng.Fork();
  out->lookup_us.kept.reserve(kReservoir);
  out->topk_us.kept.reserve(kReservoir);
  uint64_t last_epoch = UINT64_MAX;
  while (!stop.stop_requested()) {
    const bool measuring = shared->ingesting.load(std::memory_order_acquire);
    const Clock::time_point t0 = Clock::now();
    const std::shared_ptr<const SolutionView> view =
        shared->store->solver().published_view();
    bool ok = view != nullptr;
    for (int j = 0; ok && j < kUsersPerLookup; ++j) {
      const NodeId u = static_cast<NodeId>(rng.NextBounded(shared->n));
      const uint32_t group = view->GroupOf(u);
      if (group == SolutionView::kNoGroup) continue;
      const auto members = view->GroupMembers(group);
      ok = std::find(members.begin(), members.end(), u) != members.end();
    }
    const Clock::time_point t1 = Clock::now();
    ++out->reads;
    if (measuring) {
      out->lookup_us.Add(static_cast<float>(MillisBetween(t0, t1) * 1e3),
                         sample_rng);
    }
    if (ok && out->reads % kTopKEvery == 0) {
      const Clock::time_point t2 = Clock::now();
      const auto top = view->TopK(kTopK);
      const Clock::time_point t3 = Clock::now();
      ok = top.size() == std::min<size_t>(kTopK, view->solution.size());
      if (measuring) {
        out->topk_us.Add(static_cast<float>(MillisBetween(t2, t3) * 1e3),
                         sample_rng);
      }
    }
    if (!ok) ++out->bad_reads;
    if (view == nullptr || view->epoch == last_epoch) continue;
    last_epoch = view->epoch;
    if (view->epoch >= shared->claimed.size() ||
        !shared->claimed[view->epoch].exchange(true)) {
      ++out->views_checked;
      if (!view->Consistent(nullptr)) ++out->bad_views;
    }
  }
}

struct StreamResult {
  uint64_t epochs = 0;
  uint64_t failed_epochs = 0;
  Samples visible_ms;     // window close -> ApplyBatch returned
  Samples queue_wait_ms;  // window close -> ApplyBatch called
  Samples batch_ms;       // ApplyBatch wall time, every epoch
  uint64_t max_backlog = 0;
  Samples lookup_us;  // the readers' reservoirs
  Samples topk_us;
  uint64_t lookups = 0;  // measured, of which lookup_us holds a sample
  uint64_t topks = 0;
  // Traced pass only: side calls and per-epoch engine counters.
  Samples validate_ms;
  Samples wal_us;
  Samples view_build_us;
  Samples engine_us;  // ApplyBatch minus the side validate and WAL append
  Samples checkpoint_ms;
  uint64_t updates = 0;
  uint64_t dirty_slots = 0;
  uint64_t work = 0;
  uint64_t swap_commits = 0;

  // Adds an untraced chunk's samples and counts.
  void Merge(const StreamResult& chunk) {
    epochs += chunk.epochs;
    failed_epochs += chunk.failed_epochs;
    visible_ms.Append(chunk.visible_ms);
    queue_wait_ms.Append(chunk.queue_wait_ms);
    batch_ms.Append(chunk.batch_ms);
    max_backlog = std::max(max_backlog, chunk.max_backlog);
    lookup_us.Append(chunk.lookup_us);
    topk_us.Append(chunk.topk_us);
    lookups += chunk.lookups;
    topks += chunk.topks;
  }
};

// Serves `ops` (whole windows) on `store`; `total_epochs` is the number of
// epochs the store can publish over the whole run.
StreamResult RunStream(DurableStore& store, std::span<const UpdateOp> ops,
                       size_t total_epochs, NodeId n, uint64_t seed,
                       bool traced, WalWriter* side_wal,
                       const std::string& side_snapshot, SpanLog* spans,
                       Report* report) {
  StreamResult result;
  const size_t epochs = ops.size() / kWindowOps;
  ReaderShared shared(&store, n, total_epochs);
  std::vector<ReaderStats> readers(kReaders);
  std::vector<std::jthread> threads;  // stopped and joined on every exit
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back(ReaderLoop, &shared,
                         seed * 0x9E3779B97F4A7C15ull + 17 * (r + 1),
                         &readers[r]);
  }

  uint64_t side_seq = 0;
  std::vector<WalRecord> recs;
  const Clock::time_point t0 = Clock::now() + kWindow;
  shared.ingesting.store(true, std::memory_order_release);
  for (size_t w = 0; w < epochs; ++w) {
    const std::span<const UpdateOp> batch = ops.subspan(w * kWindowOps,
                                                         kWindowOps);
    const Clock::time_point close = t0 + kWindow * static_cast<int64_t>(w + 1);
    // The writer spins rather than sleeps until the window closes: waking a
    // halted virtual CPU can take milliseconds, which would land in every
    // visible latency.
    while (Clock::now() < close) std::this_thread::yield();
    double validate_ms = 0.0;
    if (traced) {
      validate_ms = spans->Time("store.validate", 0, [&] {
        report->Check(store.solver().ValidateBatch(batch).ok(),
                      "ValidateBatch side call");
      });
    }
    const uint64_t checkpoints = store.checkpoints_taken();
    const uint64_t span = traced ? spans->Begin("store.apply_batch", 0) : 0;
    const Clock::time_point start = Clock::now();
    const Status applied = store.ApplyBatch(batch);
    const Clock::time_point end = Clock::now();
    spans->End(span);
    ++result.epochs;
    if (!applied.ok()) {
      ++result.failed_epochs;
      std::fprintf(stderr, "ApplyBatch epoch %zu: %s\n", w,
                   applied.ToString().c_str());
    }
    const double batch_ms = MillisBetween(start, end);
    result.visible_ms.Add(MillisBetween(close, end));
    result.queue_wait_ms.Add(MillisBetween(close, start));
    result.batch_ms.Add(batch_ms);
    const uint64_t closed =
        static_cast<uint64_t>((start - t0) / kWindow);  // windows closed
    result.max_backlog = std::max(result.max_backlog,
                                  closed > w + 1 ? closed - (w + 1) : 0);
    if (!traced) continue;

    // Side calls on the same input, after the commit.
    const BatchStats& stats = store.solver().last_batch_stats();
    result.updates += stats.updates;
    result.dirty_slots += stats.dirty_slots;
    result.work += stats.work;
    result.swap_commits += stats.swaps.commits;
    recs.assign(batch.size(), WalRecord{});
    for (size_t i = 0; i < batch.size(); ++i) {
      recs[i] = {++side_seq, batch[i].is_insert, batch[i].edge.first,
                 batch[i].edge.second};
    }
    const double wal_ms = spans->Time("store.wal_append", span, [&] {
      report->Check(side_wal->AppendGroup(recs, false).ok(),
                    "side WalWriter::AppendGroup");
    });
    const double view_ms = spans->Time("dynamic.view_build", span, [&] {
      (void)BuildSolutionView(store.solver().state(), store.solver().epoch(),
                              store.applied_seq());
    });
    result.validate_ms.Add(validate_ms);
    result.wal_us.Add(wal_ms * 1e3);
    result.view_build_us.Add(view_ms * 1e3);
    if (store.checkpoints_taken() != checkpoints) {
      result.checkpoint_ms.Add(spans->Time("store.checkpoint", span, [&] {
        report->Check(WriteSnapshot(store.solver().state(),
                                    store.applied_seq(), side_snapshot)
                          .ok(),
                      "side WriteSnapshot");
      }));
    } else {
      result.engine_us.Add((batch_ms - validate_ms - wal_ms) * 1e3);
    }
  }
  shared.ingesting.store(false, std::memory_order_release);
  for (std::jthread& t : threads) t.request_stop();
  for (std::jthread& t : threads) t.join();

  report->Count(result.epochs, result.failed_epochs, "ApplyBatch epochs");
  for (const ReaderStats& r : readers) {
    for (float v : r.lookup_us.kept) result.lookup_us.Add(v);
    for (float v : r.topk_us.kept) result.topk_us.Add(v);
    result.lookups += r.lookup_us.seen;
    result.topks += r.topk_us.seen;
    report->Count(r.reads, r.bad_reads, "reader lookups");
    report->Count(r.views_checked, r.bad_views,
                  "SolutionView::Consistent on reader views");
  }
  return result;
}

std::string CountNote(const char* what, size_t n) {
  return std::string(what) + ", n=" + std::to_string(n);
}

std::string SampledNote(const char* what, uint64_t n, size_t kept) {
  return std::string(what) + ", n=" + std::to_string(n) + " (" +
         std::to_string(kept) + " sampled)";
}

// p99 with its sample count; a run too short to put ten samples beyond it
// is a failed check.
double Tail(const Samples& s, const char* what, Report* report) {
  report->Check(s.HasTail(0.99), std::string("too few samples for ") + what +
                                     " p99: " + std::to_string(s.size()));
  return s.Quantile(0.99);
}

}  // namespace

StoreOptions ServeStoreOptions(const WorkloadSpec& spec, size_t updates) {
  StoreOptions options;
  options.dynamic.k = spec.k;
  // Every epoch's WAL group is written, but not fsynced: on a shared host
  // the disk's fsync latency is set by the neighbours' I/O and swamps the
  // commit's own cost. Recovery replays the same records either way.
  options.sync_every_append = false;
  // Checkpoints after 40% and 80% of the stream; recovery replays the last
  // fifth from the WAL.
  options.checkpoint_every =
      std::max<uint64_t>(kWindowOps, updates * 2 / 5 / kWindowOps * kWindowOps);
  return options;
}

void RunServePhase(const RunConfig& config, const Input& input,
                   DurableStore store, const std::function<void()>& interlude,
                   SpanLog* spans, TraceTotals* totals, Report* report) {
  const NodeId n = input.graph.num_nodes();
  const StoreOptions options =
      ServeStoreOptions(*config.spec, input.stream.size());
  const std::string snapshot_path = store.snapshot_path();
  const std::string wal_path = store.wal_path();

  const std::span<const UpdateOp> ops(input.stream);
  const size_t epochs = ops.size() / kWindowOps;
  StreamResult stream;
  for (int c = 0; c < kStreamChunks; ++c) {
    const size_t begin = epochs * c / kStreamChunks * kWindowOps;
    const size_t end = epochs * (c + 1) / kStreamChunks * kWindowOps;
    interlude();
    stream.Merge(RunStream(store, ops.subspan(begin, end - begin), epochs, n,
                           config.seed + c, false, nullptr, "", spans,
                           report));
  }
  std::string error;
  report->Check(store.solver().CheckInvariants(&error),
                "CheckInvariants after the stream: " + error);
  const CliqueStore before = store.solver().Snapshot();
  const uint64_t applied_seq = store.applied_seq();
  report->Check(applied_seq == input.stream.size(),
                "store applied every update");
  { DurableStore closing = std::move(store); }  // no final checkpoint

  Samples recover_s;
  for (int r = 0; r < kRecoveries; ++r) {
    {
      const Clock::time_point t0 = Clock::now();
      auto reopened = DurableStore::Open(snapshot_path, wal_path, options);
      recover_s.Add(MillisBetween(t0, Clock::now()) / 1e3);
      report->Check(reopened.ok() && reopened->applied_seq() == applied_seq &&
                        SameCliques(reopened->solver().Snapshot(), before),
                    "recovered solution differs from the pre-close one");
      if (r == 0 && reopened.ok()) {
        error.clear();
        report->Check(reopened->solver().CheckInvariants(&error),
                      "CheckInvariants after recovery: " + error);
      }
    }
    if (r + 1 < kRecoveries) interlude();
  }

  report->EndToEnd(
      "lookup_p50_us", stream.lookup_us.Median(), "us",
      SampledNote("lookups", stream.lookups, stream.lookup_us.size()));
  report->EndToEnd(
      "lookup_p99_us", Tail(stream.lookup_us, "lookup_us", report), "us",
      SampledNote("lookups", stream.lookups, stream.lookup_us.size()));
  report->EndToEnd("recover_s", recover_s.Median(), "s",
                   MedianNote("Open calls", recover_s));
  report->EndToEnd("serve_cliques", static_cast<double>(before.size()),
                   "count");
  // An epoch commit is tens of microseconds of cache-cold work, whose
  // median moved by up to a third from run to run with the host's load;
  // the p99 is set by the two checkpoint stalls, whose length follows the
  // disk's. recover_s gates the same apply-and-publish path, replayed.
  report->Layer("serve.visible_p50_ms", stream.visible_ms.Median(), "ms",
                CountNote("epochs", stream.visible_ms.size()));
  report->Layer("serve.visible_p99_ms",
                Tail(stream.visible_ms, "visible_ms", report), "ms",
                CountNote("epochs", stream.visible_ms.size()));
  report->Layer("serve.topk_p50_us", stream.topk_us.Median(), "us",
                SampledNote("TopK calls", stream.topks, stream.topk_us.size()));
  if (!spans->enabled()) return;

  // Traced replay of the same stream on a fresh store.
  report->Layer("serve.queue_wait_p99_ms",
                stream.queue_wait_ms.Quantile(0.99), "ms",
                CountNote("untraced epochs", stream.queue_wait_ms.size()));
  report->Layer("serve.max_backlog_epochs",
                static_cast<double>(stream.max_backlog), "count",
                "closed windows waiting behind the one being committed");
  auto fresh =
      DurableStore::Create(input.graph, snapshot_path, wal_path, options);
  report->Check(fresh.ok(), "DurableStore::Create for the traced replay");
  if (!fresh.ok()) return;
  const std::string side_wal_path = config.dir + "/side.wal";
  const std::string side_snapshot = config.dir + "/side.snap";
  std::filesystem::remove(side_wal_path);
  auto side_wal = WalWriter::Open(side_wal_path);
  report->Check(side_wal.ok(), "side WalWriter::Open");
  if (!side_wal.ok()) return;
  const StreamResult traced =
      RunStream(*fresh, ops, epochs, n, config.seed, true, &*side_wal,
                side_snapshot, spans, report);
  report->Check(SameCliques(fresh->solver().Snapshot(), before),
                "traced replay differs from the untraced stream");
  const double snapshot_mb =
      static_cast<double>(std::filesystem::file_size(snapshot_path)) / 1e6;
  const Count index_size = fresh->solver().index_size();
  { DurableStore closing = std::move(fresh).value(); }

  const uint64_t open_span = spans->Begin("store.open", 0);
  const double read_ms = spans->Time("store.snapshot_read", open_span, [&] {
    report->Check(ReadSnapshot(snapshot_path).ok(), "side ReadSnapshot");
  });
  const Clock::time_point t0 = Clock::now();
  auto reopened = DurableStore::Open(snapshot_path, wal_path, options);
  const double open_ms = MillisBetween(t0, Clock::now());
  spans->End(open_span);
  report->Check(reopened.ok() && SameCliques(reopened->solver().Snapshot(),
                                             before),
                "traced recovery differs from the pre-close solution");
  const uint64_t replayed = reopened.ok() ? reopened->replayed_records() : 0;

  totals->untraced_ms += stream.batch_ms.Sum() + recover_s.Median() * 1e3;
  totals->traced_ms += traced.batch_ms.Sum() + open_ms;
  totals->covered_ms +=
      traced.validate_ms.Sum() + traced.wal_us.Sum() / 1e3 + read_ms;

  const double updates =
      static_cast<double>(std::max<uint64_t>(1, traced.updates));
  report->Layer("dynamic.apply_p50_us", traced.engine_us.Median(), "us",
                CountNote("ApplyBatch minus side validate and WAL, epochs",
                          traced.engine_us.size()));
  report->Layer("dynamic.apply_p99_us", traced.engine_us.Quantile(0.99), "us",
                CountNote("epochs", traced.engine_us.size()));
  report->Layer("dynamic.view_build_p50_us", traced.view_build_us.Median(),
                "us",
                CountNote("BuildSolutionView", traced.view_build_us.size()));
  report->Layer("dynamic.ops_per_epoch",
                updates / static_cast<double>(traced.epochs), "count");
  report->Layer("dynamic.dirty_slots_per_update",
                static_cast<double>(traced.dirty_slots) / updates, "count");
  report->Layer("dynamic.work_per_update",
                static_cast<double>(traced.work) / updates, "count");
  report->Layer("dynamic.swap_commits",
                static_cast<double>(traced.swap_commits), "count");
  report->Layer("dynamic.index_size", static_cast<double>(index_size),
                "count");
  report->Layer("store.wal_append_p50_us", traced.wal_us.Median(), "us",
                CountNote("side AppendGroup, no fsync", traced.wal_us.size()));
  report->Layer("store.wal_append_p99_us", traced.wal_us.Quantile(0.99), "us",
                CountNote("epochs", traced.wal_us.size()));
  report->Layer("store.wal_bytes_per_update",
                static_cast<double>(std::filesystem::file_size(side_wal_path)) /
                    updates,
                "B");
  report->Layer("store.checkpoint_ms", traced.checkpoint_ms.Median(), "ms",
                CountNote("side WriteSnapshot", traced.checkpoint_ms.size()));
  report->Layer("store.snapshot_mb", snapshot_mb, "MB");
  report->Layer("store.snapshot_read_ms", read_ms, "ms", "side ReadSnapshot");
  report->Layer("store.replay_ms", open_ms - read_ms, "ms",
                "Open minus the snapshot read");
  report->Layer("store.replayed_records", static_cast<double>(replayed),
                "count");
}

}  // namespace dkc::perfbench
