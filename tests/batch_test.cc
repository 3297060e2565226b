// Epoch-batched ingestion: ApplyBatch semantics, validation atomicity,
// per-epoch stats, and the published SolutionView.
//
// The heavy cross-thread / cross-batch-size byte-identity sweep lives in
// thread_sweep_test.cc; this file fuzzes the batched engine's *internal*
// contracts — candidate-index completeness after every epoch, atomic
// rejection of invalid batches (including intra-batch duplicates),
// sequential intra-batch semantics (insert-then-delete of the same edge is
// a valid, self-canceling pair), stats bookkeeping, and reader-visible
// view consistency.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "core/verify.h"
#include "dynamic/dynamic_solver.h"
#include "dynamic/solution_view.h"
#include "dynamic/workload.h"
#include "gen/generators.h"
#include "graph/graph.h"
#include "test_util.h"
#include "util/rng.h"

namespace dkc {
namespace {

std::vector<std::vector<NodeId>> ToVectors(const CliqueStore& set) {
  std::vector<std::vector<NodeId>> out;
  out.reserve(set.size());
  for (CliqueId c = 0; c < set.size(); ++c) {
    const auto clique = set.Get(c);
    out.emplace_back(clique.begin(), clique.end());
  }
  return out;
}

TEST(BatchTest, FuzzedEpochsKeepEveryInvariant) {
  constexpr int kWorlds = 8;
  constexpr size_t kUpdatesPerWorld = 240;
  for (int world = 0; world < kWorlds; ++world) {
    SCOPED_TRACE("world=" + std::to_string(world));
    Rng rng(9100 + static_cast<uint64_t>(world) * 131);
    const NodeId n = 60 + static_cast<NodeId>(world % 4) * 15;
    const Graph initial = ErdosRenyi(n, 0.12, rng).value();
    const int k = 3 + world % 2;
    const auto ops = MakeChurnStream(initial, kUpdatesPerWorld, rng);

    DynamicOptions options;
    options.k = k;
    auto solver = DynamicSolver::Build(initial, options);
    ASSERT_TRUE(solver.ok()) << solver.status().ToString();
    EXPECT_EQ(solver->epoch(), 0u);
    EXPECT_EQ(solver->published_view()->epoch, 0u);

    const std::span<const UpdateOp> all(ops);
    uint64_t epochs = 0;
    uint64_t updates_applied = 0;
    size_t i = 0;
    while (i < all.size()) {
      // Random epoch sizes, 1..12 — including plenty of size-1 epochs.
      const size_t len = std::min<size_t>(1 + rng.NextBounded(12),
                                          all.size() - i);
      const auto epoch = all.subspan(i, len);
      ASSERT_TRUE(solver->ApplyBatch(epoch).ok());
      ++epochs;
      updates_applied += len;
      i += len;

      // Counters track the stream position exactly.
      EXPECT_EQ(solver->epoch(), epochs);
      EXPECT_EQ(solver->batches_applied(), epochs);
      EXPECT_EQ(solver->batched_updates_applied(), updates_applied);

      // The per-update breakdown mirrors the epoch's ops one to one, and
      // the deduped dirty-slot count never exceeds the per-op markings.
      const BatchStats& stats = solver->last_batch_stats();
      ASSERT_EQ(stats.updates, len);
      ASSERT_EQ(stats.per_update.size(), len);
      EXPECT_EQ(stats.inserts + stats.deletes, len);
      uint64_t marked = 0;
      for (size_t j = 0; j < len; ++j) {
        EXPECT_EQ(stats.per_update[j].is_insert, epoch[j].is_insert);
        EXPECT_EQ(stats.per_update[j].edge, epoch[j].edge);
        marked += stats.per_update[j].slots_marked;
      }
      // Every boundary rebuild traces back to some op's first mark; marks
      // can exceed the rebuilt count when a marked slot dies later in the
      // epoch (its mark is deactivated, and a reused slot re-marks fresh).
      EXPECT_LE(stats.dirty_slots, marked);

      // Structural invariants and Algorithm-5 completeness after *every*
      // epoch — the deferred boundary rebuild must leave nothing stale.
      std::string error;
      ASSERT_TRUE(solver->CheckInvariants(&error)) << error;
      ASSERT_TRUE(solver->CheckCandidateCompleteness(&error)) << error;
      ASSERT_TRUE(
          VerifySolution(solver->graph().ToGraph(), solver->Snapshot()).ok());

      // The published view is the epoch-boundary snapshot readers see.
      const auto view = solver->published_view();
      ASSERT_NE(view, nullptr);
      EXPECT_EQ(view->epoch, epochs);
      EXPECT_EQ(view->updates_applied, updates_applied);
      ASSERT_TRUE(view->Consistent(&error)) << error;
      EXPECT_EQ(ToVectors(view->solution), ToVectors(solver->Snapshot()));
    }
    EXPECT_EQ(solver->aborted_updates(), 0u);
  }
}

TEST(BatchTest, SelfCancelingPairsAreValidSequentially) {
  Rng rng(501);
  const Graph g = ErdosRenyi(40, 0.2, rng).value();
  DynamicOptions options;
  options.k = 3;
  auto solver = DynamicSolver::Build(g, options);
  ASSERT_TRUE(solver.ok());

  // An absent pair inserted then deleted, and a live edge deleted then
  // re-inserted: both valid op-by-op, with no net graph change.
  NodeId au = 0, av = 0;
  for (NodeId u = 0; u < g.num_nodes() && au == av; ++u) {
    for (NodeId v = u + 1; v < g.num_nodes(); ++v) {
      if (!g.HasEdge(u, v)) {
        au = u;
        av = v;
        break;
      }
    }
  }
  ASSERT_NE(au, av);
  NodeId lu = 0, lv = 0;
  for (NodeId v : g.Neighbors(0)) lv = std::max(lv, v);
  ASSERT_TRUE(g.HasEdge(lu, lv));

  const auto before = ToVectors(solver->Snapshot());
  const std::vector<UpdateOp> batch = {{true, {au, av}},
                                       {false, {au, av}},
                                       {false, {lu, lv}},
                                       {true, {lu, lv}}};
  ASSERT_TRUE(solver->ValidateBatch(batch).ok());
  ASSERT_TRUE(solver->ApplyBatch(batch).ok());
  EXPECT_FALSE(solver->graph().HasEdge(au, av));
  EXPECT_TRUE(solver->graph().HasEdge(lu, lv));
  std::string error;
  ASSERT_TRUE(solver->CheckInvariants(&error)) << error;
  ASSERT_TRUE(solver->CheckCandidateCompleteness(&error)) << error;
  // No net structural change — the maintained solution survives untouched.
  EXPECT_EQ(ToVectors(solver->Snapshot()), before);
}

TEST(BatchTest, InvalidBatchesAreRejectedAtomically) {
  Rng rng(502);
  const Graph g = ErdosRenyi(40, 0.2, rng).value();
  DynamicOptions options;
  options.k = 3;
  auto solver = DynamicSolver::Build(g, options);
  ASSERT_TRUE(solver.ok());

  NodeId au = 0, av = 0;
  for (NodeId u = 0; u < g.num_nodes() && au == av; ++u) {
    for (NodeId v = u + 1; v < g.num_nodes(); ++v) {
      if (!g.HasEdge(u, v)) {
        au = u;
        av = v;
        break;
      }
    }
  }
  ASSERT_NE(au, av);

  // Seed real batched state so a later rejection has stats to clobber.
  // (au, av) is live from here on.
  ASSERT_TRUE(solver->ApplyBatch(std::vector<UpdateOp>{{true, {au, av}}})
                  .ok());
  const uint64_t epochs_before = solver->epoch();
  const auto snapshot_before = ToVectors(solver->Snapshot());
  const uint64_t index_before = solver->index_size();

  // A pair still absent after the seed insert.
  NodeId bu = 0, bv = 0;
  for (NodeId u = 0; u < g.num_nodes() && bu == bv; ++u) {
    for (NodeId v = u + 1; v < g.num_nodes(); ++v) {
      if (!solver->graph().HasEdge(u, v)) {
        bu = u;
        bv = v;
        break;
      }
    }
  }
  ASSERT_NE(bu, bv);

  struct Case {
    std::vector<UpdateOp> ops;
    const char* needle;  // expected error fragment, naming the op index
  };
  const Case cases[] = {
      // Duplicate insert of the same absent pair: op 1 sees it present.
      {{{true, {bu, bv}}, {true, {bu, bv}}}, "batch op 1"},
      // Duplicate delete: op 2 deletes what op 0 already removed.
      {{{false, {au, av}}, {true, {bu, bv}}, {false, {au, av}}},
       "batch op 2"},
      // Insert of a live edge, buried mid-batch.
      {{{true, {bu, bv}}, {true, {au, av}}}, "batch op 1"},
      // Self loop.
      {{{true, {5, 5}}}, "batch op 0"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.needle);
    const Status status = solver->ApplyBatch(c.ops);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find(c.needle), std::string::npos)
        << status.ToString();
    // Atomic: nothing applied, no epoch consumed, stats reset — a caller
    // reading last_batch_stats() after an error sees zeros, not the
    // previous epoch's numbers.
    EXPECT_EQ(solver->epoch(), epochs_before);
    EXPECT_EQ(ToVectors(solver->Snapshot()), snapshot_before);
    EXPECT_EQ(solver->index_size(), index_before);
    EXPECT_EQ(solver->last_batch_stats().updates, 0u);
    EXPECT_EQ(solver->last_batch_stats().per_update.size(), 0u);
    EXPECT_EQ(solver->last_batch_stats().work, 0u);
    std::string error;
    ASSERT_TRUE(solver->CheckInvariants(&error)) << error;
  }

  // The rejected batches must not have poisoned future epochs.
  ASSERT_TRUE(solver->ApplyBatch(std::vector<UpdateOp>{{false, {au, av}}})
                  .ok());
  EXPECT_EQ(solver->epoch(), epochs_before + 1);
}

TEST(BatchTest, EmptyBatchIsANoOp) {
  Rng rng(503);
  const Graph g = ErdosRenyi(30, 0.2, rng).value();
  DynamicOptions options;
  options.k = 3;
  auto solver = DynamicSolver::Build(g, options);
  ASSERT_TRUE(solver.ok());
  const auto view_before = solver->published_view();
  ASSERT_TRUE(solver->ApplyBatch({}).ok());
  EXPECT_EQ(solver->epoch(), 0u);
  EXPECT_EQ(solver->batches_applied(), 0u);
  // No epoch boundary, no publish: readers keep the same view object.
  EXPECT_EQ(solver->published_view(), view_before);
}

TEST(BatchTest, PublishedViewSurvivesLaterEpochs) {
  // The non-blocking read contract: a reader holding an old view keeps a
  // stable, consistent epoch snapshot while the writer publishes past it.
  Rng rng(504);
  const Graph g = ErdosRenyi(60, 0.15, rng).value();
  DynamicOptions options;
  options.k = 3;
  auto solver = DynamicSolver::Build(g, options);
  ASSERT_TRUE(solver.ok());
  const auto ops = MakeChurnStream(g, 60, rng);
  const std::span<const UpdateOp> all(ops);

  ASSERT_TRUE(solver->ApplyBatch(all.subspan(0, 20)).ok());
  const auto held = solver->published_view();
  const auto held_solution = ToVectors(held->solution);
  const uint64_t held_epoch = held->epoch;

  ASSERT_TRUE(solver->ApplyBatch(all.subspan(20, 20)).ok());
  ASSERT_TRUE(solver->ApplyBatch(all.subspan(40, 20)).ok());

  // The old view is untouched by the two later publishes.
  EXPECT_EQ(held->epoch, held_epoch);
  EXPECT_EQ(ToVectors(held->solution), held_solution);
  std::string error;
  EXPECT_TRUE(held->Consistent(&error)) << error;
  // And the current view moved on.
  EXPECT_EQ(solver->published_view()->epoch, held_epoch + 2);

  // TopK is ordered by descending score, ties to the lower group id.
  const auto top = solver->published_view()->TopK(5);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_TRUE(top[i - 1].first > top[i].first ||
                (top[i - 1].first == top[i].first &&
                 top[i - 1].second < top[i].second));
  }
}

}  // namespace
}  // namespace dkc
