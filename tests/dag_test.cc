#include "graph/dag.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/ordering.h"
#include "test_util.h"

namespace dkc {
namespace {

TEST(DagTest, OutNeighborsHaveSmallerRank) {
  Graph g = testing::RandomGraph(50, 0.2, /*seed=*/20);
  Dag dag(g, DegeneracyOrdering(g));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : dag.OutNeighbors(u)) {
      EXPECT_LT(dag.ordering().rank[v], dag.ordering().rank[u]);
      EXPECT_TRUE(dag.Precedes(v, u));
    }
  }
}

TEST(DagTest, EveryEdgeOrientedExactlyOnce) {
  Graph g = testing::RandomGraph(50, 0.25, /*seed=*/21);
  Dag dag(g, DegreeOrdering(g));
  Count directed = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) directed += dag.OutDegree(u);
  EXPECT_EQ(directed, g.num_edges());
}

TEST(DagTest, OutNeighborsSortedById) {
  Graph g = testing::RandomGraph(50, 0.2, /*seed=*/22);
  Dag dag(g, DegeneracyOrdering(g));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    auto out = dag.OutNeighbors(u);
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  }
}

TEST(DagTest, IdentityOrderingOrientsHighToLow) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);
  Graph g = b.Build();
  Dag dag(g, IdentityOrdering(3));
  EXPECT_EQ(dag.OutDegree(0), 0u);
  EXPECT_EQ(dag.OutDegree(1), 1u);
  EXPECT_EQ(dag.OutDegree(2), 2u);
}

TEST(DagTest, MaxOutDegreeIsMaxOfOutDegrees) {
  Graph g = testing::RandomGraph(40, 0.3, /*seed=*/23);
  Dag dag(g, DegeneracyOrdering(g));
  Count expected = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    expected = std::max(expected, dag.OutDegree(u));
  }
  EXPECT_EQ(dag.MaxOutDegree(), expected);
}

TEST(DagTest, DegeneracyOrientationBoundsOutDegree) {
  // DegeneracyOrdering is the reversed peel sequence, so the DAG's
  // out-degree (edges toward lower ranks = later-peeled nodes) is bounded
  // by the degeneracy — the kClist complexity guarantee — and the node
  // peeled at the degeneracy attains it.
  Graph g = testing::RandomGraph(60, 0.2, /*seed=*/24);
  Dag dag(g, DegeneracyOrdering(g));
  EXPECT_EQ(dag.MaxOutDegree(), testing::BruteForceDegeneracy(g));
}

TEST(DagTest, EmptyGraph) {
  Graph g;
  Dag dag(g, IdentityOrdering(0));
  EXPECT_EQ(dag.num_nodes(), 0u);
  EXPECT_EQ(dag.MaxOutDegree(), 0u);
}

}  // namespace
}  // namespace dkc
