#include "graph/ordering.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "gen/named_graphs.h"
#include "graph/dag.h"
#include "test_util.h"

namespace dkc {
namespace {

void ExpectValidPermutation(const Ordering& o, NodeId n) {
  ASSERT_EQ(o.rank.size(), n);
  ASSERT_EQ(o.nodes.size(), n);
  std::vector<bool> seen(n, false);
  for (NodeId i = 0; i < n; ++i) {
    ASSERT_LT(o.nodes[i], n);
    EXPECT_FALSE(seen[o.nodes[i]]) << "duplicate node in ordering";
    seen[o.nodes[i]] = true;
    EXPECT_EQ(o.rank[o.nodes[i]], i) << "rank and nodes disagree";
  }
}

// The degeneracy, read the way `dkc stats` reads it: the max out-degree of
// the DAG oriented by the degeneracy order.
Count OrientedMaxOutDegree(const Graph& g) {
  return Dag(g, DegeneracyOrdering(g)).MaxOutDegree();
}

TEST(OrderingTest, IdentityIsIdentity) {
  Ordering o = IdentityOrdering(5);
  ExpectValidPermutation(o, 5);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(o.rank[v], v);
}

TEST(OrderingTest, DegreeOrderingIsAscending) {
  Graph g = testing::RandomGraph(50, 0.2, /*seed=*/10);
  Ordering o = DegreeOrdering(g);
  ExpectValidPermutation(o, g.num_nodes());
  for (NodeId i = 1; i < g.num_nodes(); ++i) {
    EXPECT_LE(g.Degree(o.nodes[i - 1]), g.Degree(o.nodes[i]));
  }
}

TEST(OrderingTest, OrderByKeyAscendingSortsAndBreaksTiesById) {
  std::vector<Count> key = {5, 1, 5, 0, 1};
  Ordering o = OrderByKeyAscending(key);
  ExpectValidPermutation(o, 5);
  EXPECT_EQ(o.nodes[0], 3u);  // key 0
  EXPECT_EQ(o.nodes[1], 1u);  // key 1, smaller id first
  EXPECT_EQ(o.nodes[2], 4u);
  EXPECT_EQ(o.nodes[3], 0u);  // key 5, smaller id first
  EXPECT_EQ(o.nodes[4], 2u);
}

TEST(OrderingTest, DegeneracyOrderingIsPermutation) {
  Graph g = testing::RandomGraph(70, 0.15, /*seed=*/11);
  ExpectValidPermutation(DegeneracyOrdering(g), g.num_nodes());
}

TEST(OrderingTest, DegeneracyOfCompleteGraphIsNMinus1) {
  GraphBuilder b;
  const NodeId n = 8;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) b.AddEdge(u, v);
  }
  EXPECT_EQ(OrientedMaxOutDegree(b.Build()), n - 1);
}

TEST(OrderingTest, DegeneracyOfTreeIsOne) {
  GraphBuilder b;
  for (NodeId v = 1; v < 20; ++v) b.AddEdge(v, v / 2);
  EXPECT_EQ(OrientedMaxOutDegree(b.Build()), 1u);
}

TEST(OrderingTest, DegeneracyOfEmptyGraphIsZero) {
  Graph g;
  EXPECT_EQ(OrientedMaxOutDegree(g), 0u);
}

TEST(OrderingTest, DegeneracyOfKarateClub) {
  // Known value for Zachary's karate club.
  EXPECT_EQ(OrientedMaxOutDegree(KarateClub()), 4u);
}

// Random graphs of various shapes, checked against the naive peel.
class DegeneracySweep : public ::testing::TestWithParam<uint64_t> {
 protected:
  Graph MakeGraph() const {
    const uint64_t seed = GetParam();
    Rng rng(seed);
    const NodeId n = 20 + static_cast<NodeId>(rng.NextBounded(40));
    const double p = 0.05 + rng.NextDouble() * 0.3;
    return testing::RandomGraph(n, p, seed * 977 + 1);
  }
};

TEST_P(DegeneracySweep, MatchesBruteForce) {
  const Graph g = MakeGraph();
  EXPECT_EQ(OrientedMaxOutDegree(g), testing::BruteForceDegeneracy(g))
      << "n=" << g.num_nodes() << " seed=" << GetParam();
}

// Every c-core is the prefix of the degeneracy order whose length the
// ordering reports, from the 0-core (everything) past the degeneracy (empty).
TEST_P(DegeneracySweep, CoreIsTheReportedPrefix) {
  const Graph g = MakeGraph();
  const Count degeneracy = testing::BruteForceDegeneracy(g);
  for (Count c = 0; c <= degeneracy + 1; ++c) {
    SCOPED_TRACE("c=" + std::to_string(c));
    NodeId core_size = kInvalidNode;
    const Ordering o = DegeneracyOrdering(g, c, &core_size);
    ASSERT_LE(core_size, g.num_nodes());
    std::vector<NodeId> prefix(o.nodes.begin(), o.nodes.begin() + core_size);
    std::sort(prefix.begin(), prefix.end());
    EXPECT_EQ(prefix, testing::BruteForceCore(g, c));
    // The threshold only reports: the order itself never changes.
    EXPECT_EQ(o.nodes, DegeneracyOrdering(g).nodes);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, DegeneracySweep,
                         ::testing::Range<uint64_t>(0, 12));

// The degeneracy ordering is the reversed peel sequence: every node has at
// most `degeneracy` neighbors of *lower* rank (those peeled after it).
TEST(OrderingTest, DegeneracyOrderingHasBoundedBackwardDegree) {
  Graph g = testing::RandomGraph(60, 0.2, /*seed=*/12);
  const Count d = testing::BruteForceDegeneracy(g);
  Ordering o = DegeneracyOrdering(g);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    Count backward = 0;
    for (NodeId v : g.Neighbors(u)) {
      if (o.rank[v] < o.rank[u]) ++backward;
    }
    EXPECT_LE(backward, d) << "node " << u;
  }
}

}  // namespace
}  // namespace dkc
