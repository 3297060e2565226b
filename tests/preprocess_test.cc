// Unit tests for the graph-shrinking preprocessing pipeline: (k-1)-core
// peel behaviour on structured graphs (windmill, tripartite, star, WS),
// the "everything pruned" / "nothing pruned" edges, remap invariants, the
// order-preserving orientation contract, and the survivors against a naive
// (k-1)-core cascade.

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

// The nothing-peeled contract: no CSR and no id maps — the input itself is
// the pruned graph — and the input's own degeneracy order as orientation.
void ExpectPassThrough(const Graph& g, const PreprocessResult& result) {
  EXPECT_EQ(result.stats.peeled_nodes, 0u);
  EXPECT_EQ(result.stats.nodes_after, g.num_nodes());
  EXPECT_EQ(result.stats.edges_after, g.num_edges());
  EXPECT_EQ(result.pruned.num_nodes(), 0u);
  EXPECT_TRUE(result.new_to_old.empty());
  EXPECT_TRUE(result.old_to_new.empty());
  const Ordering expected = DegeneracyOrdering(g);
  EXPECT_EQ(result.orientation.nodes, expected.nodes);
  EXPECT_EQ(result.orientation.rank, expected.rank);
}

// Shared sanity pack: stats add up, and either nothing was peeled (the
// pass-through contract) or the maps invert each other, the remap is
// monotone (order-preserving), the pruned graph is the subgraph induced by
// the survivors, and the orientation is a permutation of its nodes.
void CheckInvariants(const Graph& g, const PreprocessResult& result) {
  const PreprocessStats& stats = result.stats;
  EXPECT_EQ(stats.nodes_before, g.num_nodes());
  EXPECT_EQ(stats.edges_before, g.num_edges());
  EXPECT_EQ(stats.nodes_removed(), stats.peeled_nodes);
  EXPECT_EQ(stats.edges_removed(), stats.peeled_edges);
  EXPECT_EQ(stats.unsupported_edges, 0u);
  if (stats.peeled_nodes == 0) {
    ExpectPassThrough(g, result);
    return;
  }
  EXPECT_EQ(stats.nodes_after, result.pruned.num_nodes());
  EXPECT_EQ(stats.edges_after, result.pruned.num_edges());

  ASSERT_EQ(result.new_to_old.size(), result.pruned.num_nodes());
  ASSERT_EQ(result.old_to_new.size(), g.num_nodes());
  for (NodeId pu = 0; pu < result.new_to_old.size(); ++pu) {
    EXPECT_EQ(result.old_to_new[result.new_to_old[pu]], pu);
    if (pu > 0) {  // ascending == order-preserving
      EXPECT_LT(result.new_to_old[pu - 1], result.new_to_old[pu]);
    }
  }

  // Every edge between survivors is kept (remapped, rows sorted), and the
  // peeled edges are exactly those with a peeled endpoint.
  Count dying = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const NodeId pu = result.old_to_new[u];
    std::vector<NodeId> expected_row;
    for (NodeId v : g.Neighbors(u)) {
      const NodeId pv = result.old_to_new[v];
      if (pu != kInvalidNode && pv != kInvalidNode) {
        expected_row.push_back(pv);
      } else if (u < v) {
        ++dying;
      }
    }
    if (pu == kInvalidNode) continue;
    const auto row = result.pruned.Neighbors(pu);
    EXPECT_TRUE(std::equal(row.begin(), row.end(), expected_row.begin(),
                           expected_row.end()))
        << "row of node " << u;
  }
  EXPECT_EQ(stats.peeled_edges, dying);

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

PreprocessResult RunPipeline(const Graph& g, int k) {
  PreprocessOptions options;
  options.k = k;
  PreprocessResult result = PreprocessForKCliques(g, options);
  CheckInvariants(g, result);
  return result;
}

TEST(PreprocessTest, WindmillKeepsEverythingForTriangles) {
  const Graph g = Windmill(5);
  const auto result = RunPipeline(g, 3);
  // Every node has degree >= 2 and sits in a triangle: nothing pruned.
  ExpectPassThrough(g, result);
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
  ExpectPassThrough(g, result);
}

TEST(PreprocessTest, TripartiteKeepsTrianglesDropsNothingForK3) {
  const Graph g = Tripartite(3);
  const auto result = RunPipeline(g, 3);
  ExpectPassThrough(g, result);
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
  // keeps it and the graph passes through whole, node 7 included. The
  // solvers discard its branches themselves: the solution is
  // byte-identical either way.
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
  EXPECT_EQ(result.stats.nodes_after, 8u);
  EXPECT_EQ(result.stats.edges_after, 15u);
  ExpectPassThrough(g, result);

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
  ExpectPassThrough(g, result);
  EXPECT_EQ(result.stats.edges_removed(), 0u);
}

TEST(PreprocessTest, PruningNeverRemovesACliqueNodeOrEdge) {
  // Randomized soundness check: every k-clique of the input must appear,
  // with all of its edges, in the pruned graph (under the id remap; the
  // input itself when nothing was peeled).
  for (int case_index = 0; case_index < 12; ++case_index) {
    SCOPED_TRACE("case_index=" + std::to_string(case_index));
    const Graph g = testing::RandomGraph(28 + case_index, 0.25,
                                         9000 + case_index);
    for (int k = 3; k <= 5; ++k) {
      SCOPED_TRACE("k=" + std::to_string(k));
      const auto result = RunPipeline(g, k);
      if (result.stats.peeled_nodes == 0) continue;
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
}

TEST(PreprocessTest, EmptyGraphAndSmallKPassThrough) {
  const Graph empty;
  ExpectPassThrough(empty, RunPipeline(empty, 4));

  // k < 3: identity pass-through (no prune rules exist).
  const Graph g = Star(4);
  ExpectPassThrough(g, RunPipeline(g, 2));
}

// The survivors are the (k-1)-core, read off as a prefix of the degeneracy
// order: they must equal a naive cascade's core, and the orientation must
// be that prefix of the input's order under the remap.
TEST(PreprocessTest, SurvivorsAreTheCoreOnEveryInstance) {
  constexpr int kInstances = 52;
  int peeled_some = 0;
  int peeled_none = 0;
  for (int case_index = 0; case_index < kInstances; ++case_index) {
    SCOPED_TRACE("case_index=" + std::to_string(case_index));
    const Graph g = testing::RandomGraphMixed(case_index, /*seed=*/7000);
    const Ordering original = DegeneracyOrdering(g);
    for (int k : {3, 4, 5, 6, 8}) {
      SCOPED_TRACE("k=" + std::to_string(k));
      const PreprocessResult result = RunPipeline(g, k);
      const std::vector<NodeId> core =
          testing::BruteForceCore(g, static_cast<Count>(k) - 1);
      if (result.stats.peeled_nodes == 0) {
        ++peeled_none;
        EXPECT_EQ(core.size(), g.num_nodes());
        continue;
      }
      ++peeled_some;
      EXPECT_EQ(result.new_to_old, core);
      const NodeId keep = result.stats.nodes_after;
      ASSERT_EQ(result.orientation.nodes.size(), keep);
      for (NodeId i = 0; i < keep; ++i) {
        EXPECT_EQ(result.orientation.nodes[i],
                  result.old_to_new[original.nodes[i]])
            << "position " << i;
      }
    }
  }
  // Both branches must be exercised, or half the contract goes unchecked.
  EXPECT_GE(peeled_some, 20);
  EXPECT_GE(peeled_none, 20);
}

}  // namespace
}  // namespace dkc
