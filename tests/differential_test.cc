// Randomized differential testing: every static heuristic against naive
// oracles and the exact baseline, the library verifier against an
// independent naive verifier, and the dynamic maintenance engine against
// from-scratch static re-solves under random insert/delete streams.
//
// All randomness is seeded; a failure message always names the case index
// so it can be replayed in isolation.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/solver.h"
#include "core/verify.h"
#include "dynamic/dynamic_solver.h"
#include "gen/generators.h"
#include "graph/dynamic_graph.h"
#include "graph/graph.h"
#include "test_util.h"
#include "util/cpu.h"
#include "util/rng.h"

namespace dkc {
namespace {

constexpr Method kHeuristics[] = {Method::kHG, Method::kGC, Method::kL,
                                  Method::kLP};

std::vector<std::vector<NodeId>> ToVectors(const CliqueStore& set) {
  std::vector<std::vector<NodeId>> out;
  out.reserve(set.size());
  for (CliqueId c = 0; c < set.size(); ++c) {
    const auto clique = set.Get(c);
    out.emplace_back(clique.begin(), clique.end());
  }
  return out;
}

// Every heuristic method on >= 50 mixed-model random instances, each result
// re-validated by the naive oracles AND by the library verifier; a
// divergence between the two verifiers is itself a failure.
TEST(DifferentialTest, StaticHeuristicsSatisfyOraclesOnRandomInstances) {
  constexpr int kInstances = 52;
  for (int case_index = 0; case_index < kInstances; ++case_index) {
    SCOPED_TRACE("case_index=" + std::to_string(case_index));
    const Graph g = testing::RandomGraphMixed(case_index, /*seed=*/7000);
    const int k = 3 + case_index % 3;
    for (Method method : kHeuristics) {
      SCOPED_TRACE(MethodName(method));
      SolverOptions options;
      options.k = k;
      options.method = method;
      auto result = Solve(g, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();

      const std::string oracle_error =
          testing::OracleCheckDisjointCliques(g, result->set);
      EXPECT_EQ(oracle_error, "");
      EXPECT_TRUE(testing::OracleCheckMaximal(g, result->set));

      // The library verifier must agree with the naive one.
      const Status lib = VerifySolution(g, result->set);
      EXPECT_TRUE(lib.ok()) << lib.ToString();
    }
  }
}

// L and LP differ only in the FindMin pruning branch; the paper reports
// identical solutions ("Due to the same quality of S of L and LP").
TEST(DifferentialTest, PruningNeverChangesTheLightweightSolution) {
  for (int case_index = 0; case_index < 24; ++case_index) {
    SCOPED_TRACE("case_index=" + std::to_string(case_index));
    const Graph g = testing::RandomGraphMixed(case_index, /*seed=*/7100);
    SolverOptions options;
    options.k = 3 + case_index % 3;
    options.method = Method::kL;
    auto plain = Solve(g, options);
    options.method = Method::kLP;
    auto pruned = Solve(g, options);
    ASSERT_TRUE(plain.ok() && pruned.ok());
    EXPECT_EQ(testing::Canonicalize(ToVectors(plain->set)),
              testing::Canonicalize(ToVectors(pruned->set)));
  }
}

// The SIMD dispatch level (scalar / SSE4.2 / AVX2 — util/cpu.h) is only
// allowed to change speed, never output: every solver method must return
// byte-identical solutions at every level the host supports. This is the
// end-to-end half of the intersect_simd byte-identity sweep — it exercises
// the dispatched merge, the fused AND+popcount rows, and the gathered row
// construction through real traversals instead of synthetic inputs.
TEST(DifferentialTest, SimdDispatchLevelNeverChangesSolutions) {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (CpuSimdLevel() >= SimdLevel::kSse42) levels.push_back(SimdLevel::kSse42);
  if (CpuSimdLevel() >= SimdLevel::kAvx2) levels.push_back(SimdLevel::kAvx2);
  for (int case_index = 0; case_index < 16; ++case_index) {
    SCOPED_TRACE("case_index=" + std::to_string(case_index));
    const Graph g = testing::RandomGraphMixed(case_index, /*seed=*/7400);
    SolverOptions options;
    options.k = 3 + case_index % 3;
    for (Method method : kHeuristics) {
      SCOPED_TRACE(MethodName(method));
      std::vector<std::vector<NodeId>> reference;
      for (size_t li = 0; li < levels.size(); ++li) {
        SetSimdLevelOverride(levels[li]);
        options.method = method;
        auto result = Solve(g, options);
        ClearSimdLevelOverride();
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        if (li == 0) {
          reference = ToVectors(result->set);
        } else {
          EXPECT_EQ(ToVectors(result->set), reference)
              << "level=" << SimdLevelName(levels[li]);
        }
      }
    }
  }
}

// On small instances the exact baseline is itself checked against an
// exhaustive packing search, and every heuristic must stay within the
// paper's k-approximation band of it.
TEST(DifferentialTest, HeuristicsVsExactOnSmallInstances) {
  for (int case_index = 0; case_index < 16; ++case_index) {
    SCOPED_TRACE("case_index=" + std::to_string(case_index));
    Rng rng(7200 + static_cast<uint64_t>(case_index));
    const NodeId n = 12 + static_cast<NodeId>(case_index % 4);
    const double p = 0.30 + 0.05 * static_cast<double>(case_index % 3);
    const Graph g = ErdosRenyi(n, p, rng).value();
    const int k = 3 + case_index % 2;

    SolverOptions options;
    options.k = k;
    options.method = Method::kOPT;
    auto exact = Solve(g, options);
    ASSERT_TRUE(exact.ok()) << exact.status().ToString();
    EXPECT_EQ(exact->size(), testing::BruteForceMaxDisjointPacking(g, k));
    EXPECT_EQ(testing::OracleCheckDisjointCliques(g, exact->set), "");

    for (Method method : kHeuristics) {
      SCOPED_TRACE(MethodName(method));
      options.method = method;
      auto heuristic = Solve(g, options);
      ASSERT_TRUE(heuristic.ok()) << heuristic.status().ToString();
      EXPECT_LE(heuristic->size(), exact->size());
      // Theorem 3: any maximal disjoint k-clique set is a k-approximation.
      EXPECT_LE(exact->size(), static_cast<NodeId>(k) * heuristic->size());
    }
  }
}

// The preprocessing pipeline's central promise: in the default
// order-preserving mode, running any method on the (k-1)-core of the
// input produces the byte-identical solution —
// same cliques, same order, same node order within each clique — as
// running it on the raw input. Every static instance, all five methods;
// OPT runs under the deterministic branch budget so the genuinely hard
// instances abort identically on both sides instead of timing out.
TEST(DifferentialTest, PreprocessingPreservesSolutionsByteForByte) {
  constexpr int kInstances = 52;
  constexpr Method kMethods[] = {Method::kHG, Method::kGC, Method::kL,
                                 Method::kLP, Method::kOPT};
  int nontrivially_pruned = 0;
  for (int case_index = 0; case_index < kInstances; ++case_index) {
    SCOPED_TRACE("case_index=" + std::to_string(case_index));
    const Graph g = testing::RandomGraphMixed(case_index, /*seed=*/7000);
    const int k = 3 + case_index % 3;
    for (Method method : kMethods) {
      SCOPED_TRACE(MethodName(method));
      SolverOptions options;
      options.k = k;
      options.method = method;
      if (method == Method::kOPT) {
        options.budget.max_branch_nodes = 40000;
      }
      options.preprocess = false;
      auto plain = Solve(g, options);
      options.preprocess = true;
      auto pruned = Solve(g, options);
      ASSERT_EQ(plain.ok(), pruned.ok())
          << (plain.ok() ? pruned.status().ToString()
                         : plain.status().ToString());
      if (!plain.ok()) continue;  // identical deterministic abort
      EXPECT_EQ(ToVectors(pruned->set), ToVectors(plain->set));
      EXPECT_EQ(pruned->preprocess.nodes_before, g.num_nodes());
      EXPECT_LE(pruned->preprocess.nodes_after,
                pruned->preprocess.nodes_before);
      if (pruned->preprocess.edges_removed() > 0) ++nontrivially_pruned;
    }
  }
  // The sweep must include instances where pruning actually bites, or the
  // byte-identity claim is only ever tested on no-op remaps.
  EXPECT_GE(nontrivially_pruned, 10);
}

// The opt-in reorder mode waives byte-identity (the pruned graph gets its
// own degeneracy order) but must still produce valid maximal disjoint
// k-clique sets, mutually within the Theorem-3 k-approximation band of the
// preprocess-off run.
TEST(DifferentialTest, ReorderModeStaysValidAndComparable) {
  for (int case_index = 0; case_index < 24; ++case_index) {
    SCOPED_TRACE("case_index=" + std::to_string(case_index));
    const Graph g = testing::RandomGraphMixed(case_index, /*seed=*/7000);
    const int k = 3 + case_index % 3;
    for (Method method : kHeuristics) {
      SCOPED_TRACE(MethodName(method));
      SolverOptions options;
      options.k = k;
      options.method = method;
      options.preprocess = false;
      auto plain = Solve(g, options);
      options.preprocess = true;
      options.preprocess_reorder = true;
      auto reordered = Solve(g, options);
      ASSERT_TRUE(plain.ok() && reordered.ok());
      EXPECT_TRUE(reordered->preprocess.reordered);
      EXPECT_EQ(testing::OracleCheckDisjointCliques(g, reordered->set), "");
      EXPECT_TRUE(testing::OracleCheckMaximal(g, reordered->set));
      EXPECT_TRUE(VerifySolution(g, reordered->set).ok());
      EXPECT_LE(plain->size(), static_cast<NodeId>(k) * reordered->size());
      EXPECT_LE(reordered->size(), static_cast<NodeId>(k) * plain->size());
    }
  }
}

// Fuzzes the Section-V dynamic engine: random insert/delete streams, with
// invariants, both verifiers, and a from-scratch static re-solve
// cross-checked after every batch of updates.
TEST(DifferentialTest, DynamicSolverSurvivesRandomUpdateStreams) {
  constexpr int kStreams = 10;
  constexpr int kUpdatesPerStream = 220;
  constexpr int kBatch = 20;
  for (int stream = 0; stream < kStreams; ++stream) {
    SCOPED_TRACE("stream=" + std::to_string(stream));
    Rng rng(7300 + static_cast<uint64_t>(stream) * 97);
    // Doubled from n in [40, 50] once the kernel refactor paid for it; the
    // stream fuzz is the safety net every perf PR leans on.
    const NodeId n = 80 + static_cast<NodeId>(stream % 3) * 10;
    const double p = 0.10 + 0.02 * static_cast<double>(stream % 4);
    const Graph initial = ErdosRenyi(n, p, rng).value();
    const int k = 3 + stream % 2;

    DynamicOptions options;
    options.k = k;
    auto solver = DynamicSolver::Build(initial, options);
    ASSERT_TRUE(solver.ok()) << solver.status().ToString();

    // Mirror edge list for uniform sampling of deletions.
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (NodeId u = 0; u < initial.num_nodes(); ++u) {
      for (NodeId v : initial.Neighbors(u)) {
        if (u < v) edges.emplace_back(u, v);
      }
    }

    for (int update = 1; update <= kUpdatesPerStream; ++update) {
      const bool do_insert = edges.empty() || rng.NextBool(0.55);
      if (do_insert) {
        NodeId u = 0, v = 0;
        do {
          u = static_cast<NodeId>(rng.NextBounded(n));
          v = static_cast<NodeId>(rng.NextBounded(n));
        } while (u == v || solver->graph().HasEdge(u, v));
        ASSERT_TRUE(solver->InsertEdge(u, v).ok())
            << "insert (" << u << "," << v << ") at update " << update;
        edges.emplace_back(std::min(u, v), std::max(u, v));
      } else {
        const size_t pick = rng.NextBounded(edges.size());
        const auto [u, v] = edges[pick];
        edges[pick] = edges.back();
        edges.pop_back();
        ASSERT_TRUE(solver->DeleteEdge(u, v).ok())
            << "delete (" << u << "," << v << ") at update " << update;
      }

      if (update % kBatch != 0) continue;
      SCOPED_TRACE("update=" + std::to_string(update));

      std::string invariant_error;
      ASSERT_TRUE(solver->CheckInvariants(&invariant_error))
          << invariant_error;
      ASSERT_TRUE(solver->CheckCandidateCompleteness(&invariant_error))
          << invariant_error;

      const Graph current = solver->graph().ToGraph();
      ASSERT_EQ(current.num_edges(), edges.size());
      const CliqueStore snapshot = solver->Snapshot();
      EXPECT_EQ(testing::OracleCheckDisjointCliques(current, snapshot), "");
      EXPECT_TRUE(testing::OracleCheckMaximal(current, snapshot));
      const Status lib = VerifySolution(current, snapshot);
      EXPECT_TRUE(lib.ok()) << lib.ToString();

      // From-scratch static re-solve: both solutions are maximal, hence
      // both are k-approximations of the optimum, so each is within a
      // factor k of the other.
      SolverOptions resolve;
      resolve.k = k;
      resolve.method = Method::kLP;
      auto fresh = Solve(current, resolve);
      ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
      EXPECT_LE(fresh->size(),
                static_cast<NodeId>(k) * solver->solution_size());
      EXPECT_LE(solver->solution_size(),
                static_cast<NodeId>(k) * fresh->size());
    }
  }
}

}  // namespace
}  // namespace dkc
