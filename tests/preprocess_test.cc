// Unit tests for the graph-shrinking preprocessing pipeline: (k-1)-core
// peel behaviour on structured graphs (windmill, tripartite, star, WS),
// the "everything pruned" / "nothing pruned" edges, remap invariants, and
// the order-preserving orientation contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/solver.h"
#include "gen/generators.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "graph/ordering.h"
#include "graph/preprocess.h"
#include "test_util.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dkc {
namespace {

// Windmill: `blades` triangles all sharing node 0.
Graph Windmill(NodeId blades) {
  GraphBuilder b;
  for (NodeId i = 0; i < blades; ++i) {
    const NodeId x = 1 + 2 * i;
    const NodeId y = 2 + 2 * i;
    b.AddEdge(0, x);
    b.AddEdge(0, y);
    b.AddEdge(x, y);
  }
  return b.Build();
}

// Complete tripartite K_{size,size,size}.
Graph Tripartite(NodeId size) {
  GraphBuilder b;
  for (NodeId u = 0; u < 3 * size; ++u) {
    for (NodeId v = u + 1; v < 3 * size; ++v) {
      if (u / size != v / size) b.AddEdge(u, v);
    }
  }
  return b.Build();
}

Graph Star(NodeId leaves) {
  GraphBuilder b;
  for (NodeId i = 1; i <= leaves; ++i) b.AddEdge(0, i);
  return b.Build();
}

// Shared sanity pack: stats add up, the maps invert each other, the remap
// is monotone (order-preserving), and the orientation is a permutation of
// the pruned graph's nodes.
void CheckInvariants(const Graph& g, const PreprocessResult& result) {
  const PreprocessStats& stats = result.stats;
  EXPECT_EQ(stats.nodes_before, g.num_nodes());
  EXPECT_EQ(stats.edges_before, g.num_edges());
  EXPECT_EQ(stats.nodes_after, result.pruned.num_nodes());
  EXPECT_EQ(stats.edges_after, result.pruned.num_edges());
  EXPECT_EQ(stats.nodes_removed(), stats.peeled_nodes);
  EXPECT_EQ(stats.edges_removed(), stats.peeled_edges);
  EXPECT_EQ(stats.unsupported_edges, 0u);

  ASSERT_EQ(result.new_to_old.size(), result.pruned.num_nodes());
  ASSERT_EQ(result.old_to_new.size(), g.num_nodes());
  for (NodeId pu = 0; pu < result.new_to_old.size(); ++pu) {
    EXPECT_EQ(result.old_to_new[result.new_to_old[pu]], pu);
    if (pu > 0) {  // ascending == order-preserving
      EXPECT_LT(result.new_to_old[pu - 1], result.new_to_old[pu]);
    }
  }

  const NodeId pruned_n = result.pruned.num_nodes();
  ASSERT_EQ(result.orientation.nodes.size(), pruned_n);
  ASSERT_EQ(result.orientation.rank.size(), pruned_n);
  std::vector<uint8_t> seen(pruned_n, 0);
  for (NodeId i = 0; i < pruned_n; ++i) {
    const NodeId u = result.orientation.nodes[i];
    ASSERT_LT(u, pruned_n);
    EXPECT_EQ(result.orientation.rank[u], i);
    EXPECT_EQ(seen[u], 0);
    seen[u] = 1;
  }
}

PreprocessResult RunPipeline(const Graph& g, int k, bool reorder = false) {
  PreprocessOptions options;
  options.k = k;
  options.reorder = reorder;
  PreprocessResult result = PreprocessForKCliques(g, options);
  CheckInvariants(g, result);
  return result;
}

TEST(PreprocessTest, WindmillKeepsEverythingForTriangles) {
  const Graph g = Windmill(5);
  const auto result = RunPipeline(g, 3);
  // Every node has degree >= 2 and sits in a triangle: nothing pruned.
  EXPECT_EQ(result.pruned.num_nodes(), g.num_nodes());
  EXPECT_EQ(result.pruned.num_edges(), g.num_edges());
  EXPECT_EQ(result.stats.peeled_nodes, 0u);
}

TEST(PreprocessTest, WindmillFullyPrunedForK4) {
  const Graph g = Windmill(5);
  const auto result = RunPipeline(g, 4);
  // No 4-clique anywhere: blade nodes have degree 2 < 3 and are peeled,
  // which empties the graph entirely.
  EXPECT_EQ(result.pruned.num_nodes(), 0u);
  EXPECT_EQ(result.pruned.num_edges(), 0u);
  EXPECT_EQ(result.stats.nodes_removed(), g.num_nodes());
  EXPECT_EQ(result.stats.edges_removed(), g.num_edges());
}

TEST(PreprocessTest, TripartiteIsCliqueFreeButUnprunable) {
  // K_{2,2,2} has no 4-clique, yet every node has degree 4 >= 3: the
  // degree condition cannot see it. The pipeline must keep it whole
  // (conservative, never unsound) — catching over-aggressive pruning rules.
  const Graph g = Tripartite(2);
  ASSERT_TRUE(testing::BruteForceKCliques(g, 4).empty());
  const auto result = RunPipeline(g, 4);
  EXPECT_EQ(result.pruned.num_nodes(), g.num_nodes());
  EXPECT_EQ(result.pruned.num_edges(), g.num_edges());
}

TEST(PreprocessTest, TripartiteKeepsTrianglesDropsNothingForK3) {
  const Graph g = Tripartite(3);
  const auto result = RunPipeline(g, 3);
  EXPECT_EQ(result.pruned.num_nodes(), g.num_nodes());
  EXPECT_EQ(result.pruned.num_edges(), g.num_edges());
}

TEST(PreprocessTest, StarIsFullyPeeled) {
  const Graph g = Star(16);
  const auto result = RunPipeline(g, 3);
  // Leaves have degree 1 < 2; peeling them strands the hub.
  EXPECT_EQ(result.pruned.num_nodes(), 0u);
  EXPECT_EQ(result.stats.peeled_nodes, g.num_nodes());
  EXPECT_EQ(result.stats.peeled_edges, g.num_edges());
}

TEST(PreprocessTest, PeelKeepsADegreeThreeNodeOutsideEveryClique) {
  // Two K4s sharing node 6, plus node 7 wired to three clique nodes that
  // span both cliques. Node 7 lies in no 4-clique (its edges have triangle
  // support <= 1), but its degree 3 meets the k-1 threshold, so the peel
  // keeps it and the graph passes through whole. The solvers discard its
  // branches themselves: the solution is byte-identical either way.
  GraphBuilder b;
  const NodeId k4a[] = {0, 1, 2, 6};
  const NodeId k4b[] = {3, 4, 5, 6};
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) {
      b.AddEdge(k4a[i], k4a[j]);
      b.AddEdge(k4b[i], k4b[j]);
    }
  }
  b.AddEdge(7, 0);
  b.AddEdge(7, 1);
  b.AddEdge(7, 3);
  const Graph g = b.Build();
  const auto result = RunPipeline(g, 4);
  EXPECT_EQ(result.pruned.num_nodes(), 8u);
  EXPECT_EQ(result.pruned.num_edges(), 15u);
  EXPECT_EQ(result.stats.peeled_nodes, 0u);
  EXPECT_EQ(result.old_to_new[7], 7u);

  for (Method method : {Method::kHG, Method::kGC, Method::kL, Method::kLP,
                        Method::kOPT}) {
    SCOPED_TRACE(MethodName(method));
    SolverOptions options;
    options.k = 4;
    options.method = method;
    options.preprocess = false;
    auto plain = Solve(g, options);
    options.preprocess = true;
    auto pruned = Solve(g, options);
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
    ASSERT_EQ(pruned->set.size(), plain->set.size());
    EXPECT_EQ(pruned->set.size(), 1u);  // the two K4s share node 6
    for (CliqueId c = 0; c < plain->set.size(); ++c) {
      const auto a = plain->set.Get(c);
      const auto p = pruned->set.Get(c);
      EXPECT_TRUE(std::equal(a.begin(), a.end(), p.begin(), p.end()));
    }
  }
}

TEST(PreprocessTest, DenseClusteredGraphKeepsEveryEdge) {
  // The clique-dense WS shape: rewiring moves only the far endpoint, so
  // every node keeps about half of its 24 ring edges, far above the k-1 = 4
  // threshold. The peel removes nothing — including the thousands of edges
  // that lie in no 5-clique.
  Rng rng(42);
  auto ws = WattsStrogatz(2000, 24, 0.1, rng);
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  const Graph& g = *ws;
  const auto result = RunPipeline(g, 5);
  EXPECT_EQ(result.pruned.num_nodes(), g.num_nodes());
  EXPECT_EQ(result.pruned.num_edges(), g.num_edges());
  EXPECT_EQ(result.stats.edges_removed(), 0u);
}

TEST(PreprocessTest, PruningNeverRemovesACliqueNodeOrEdge) {
  // Randomized soundness check: every k-clique of the input must appear,
  // with all of its edges, in the pruned graph (under the id remap).
  for (int case_index = 0; case_index < 12; ++case_index) {
    SCOPED_TRACE("case_index=" + std::to_string(case_index));
    const Graph g = testing::RandomGraph(28 + case_index, 0.25,
                                         9000 + case_index);
    for (int k = 3; k <= 5; ++k) {
      SCOPED_TRACE("k=" + std::to_string(k));
      const auto result = RunPipeline(g, k);
      const auto before = testing::BruteForceKCliques(g, k);
      auto after = testing::BruteForceKCliques(result.pruned, k);
      for (auto& clique : after) {
        for (NodeId& u : clique) u = result.new_to_old[u];
      }
      EXPECT_EQ(testing::Canonicalize(before), testing::Canonicalize(after));
    }
  }
}

TEST(PreprocessTest, DefaultOrientationRestrictsTheOriginalDegeneracyOrder) {
  // Sparse enough (average degree ~4) that the k=4 peel removes a quarter
  // of the nodes, so the restriction is not an identity.
  const Graph g = testing::RandomGraph(60, 0.08, 9100);
  const auto result = RunPipeline(g, 4);
  ASSERT_GT(result.pruned.num_nodes(), 0u);
  ASSERT_LT(result.pruned.num_nodes(), g.num_nodes());  // pruning bit
  const Ordering original = DegeneracyOrdering(g);
  // Relative ranks of survivors must match the original order exactly.
  std::vector<NodeId> expected;
  for (NodeId id : original.nodes) {
    if (result.old_to_new[id] != kInvalidNode) {
      expected.push_back(result.old_to_new[id]);
    }
  }
  EXPECT_EQ(result.orientation.nodes, expected);
  EXPECT_FALSE(result.stats.reordered);
}

TEST(PreprocessTest, ReorderModeRecomputesDegeneracyOnThePrunedGraph) {
  const Graph g = testing::RandomGraph(60, 0.15, 9100);
  const auto result = RunPipeline(g, 4, /*reorder=*/true);
  EXPECT_TRUE(result.stats.reordered);
  const Ordering fresh = DegeneracyOrdering(result.pruned);
  EXPECT_EQ(result.orientation.nodes, fresh.nodes);
  EXPECT_EQ(result.orientation.rank, fresh.rank);
}

TEST(PreprocessTest, EmptyGraphAndSmallKPassThrough) {
  const Graph empty;
  const auto result = RunPipeline(empty, 4);
  EXPECT_EQ(result.pruned.num_nodes(), 0u);

  // k < 3: identity pass-through (no prune rules exist).
  const Graph g = Star(4);
  const auto identity = RunPipeline(g, 2);
  EXPECT_EQ(identity.pruned.num_nodes(), g.num_nodes());
  EXPECT_EQ(identity.pruned.num_edges(), g.num_edges());
}

// The range-parallel peel (per-range peels + buffered cross-range
// decrements + global cascade) must reach the exact fixpoint of the serial
// cascade: same pruned CSR, same maps, same orientation, same statistics —
// the peel is confluent and the accounting is order-independent. Forcing
// parallel_peel_min_nodes=0 exercises the fan-out even on tiny graphs.
TEST(PreprocessTest, ParallelPeelMatchesSerialOnEveryInstance) {
  constexpr int kInstances = 52;
  ThreadPool pool2(2), pool4(4);
  ThreadPool* pools[] = {&pool2, &pool4};
  for (int case_index = 0; case_index < kInstances; ++case_index) {
    SCOPED_TRACE("case_index=" + std::to_string(case_index));
    const Graph g = testing::RandomGraphMixed(case_index, /*seed=*/7000);
    const int k = 3 + case_index % 3;
    PreprocessOptions options;
    options.k = k;
    const PreprocessResult serial = PreprocessForKCliques(g, options);
    CheckInvariants(g, serial);
    for (ThreadPool* pool : pools) {
      SCOPED_TRACE("threads=" + std::to_string(pool->num_threads()));
      options.pool = pool;
      options.parallel_peel_min_nodes = 0;
      const PreprocessResult parallel = PreprocessForKCliques(g, options);
      CheckInvariants(g, parallel);
      EXPECT_EQ(parallel.new_to_old, serial.new_to_old);
      EXPECT_EQ(parallel.old_to_new, serial.old_to_new);
      EXPECT_EQ(parallel.orientation.nodes, serial.orientation.nodes);
      EXPECT_EQ(parallel.orientation.rank, serial.orientation.rank);
      ASSERT_EQ(parallel.pruned.num_nodes(), serial.pruned.num_nodes());
      ASSERT_EQ(parallel.pruned.num_edges(), serial.pruned.num_edges());
      for (NodeId u = 0; u < serial.pruned.num_nodes(); ++u) {
        const auto a = serial.pruned.Neighbors(u);
        const auto b = parallel.pruned.Neighbors(u);
        ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
      }
      EXPECT_EQ(parallel.stats.peeled_nodes, serial.stats.peeled_nodes);
      EXPECT_EQ(parallel.stats.peeled_edges, serial.stats.peeled_edges);
    }
  }
}

}  // namespace
}  // namespace dkc
