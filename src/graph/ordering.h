// Total node orderings.
//
// Every algorithm in the paper is parameterized by a total ordering pi on V:
// the k-clique listing kernel orients edges along it (Section III), the basic
// framework processes nodes in ascending pi (Algorithm 1), and the
// lightweight solver orders nodes by node score (Algorithm 3, line 3).
//
// An Ordering holds both directions of the permutation:
//   rank[v]  = position of node v in the order (pi(v))
//   nodes[i] = the node at position i (pi^-1(i))

#ifndef DKC_GRAPH_ORDERING_H_
#define DKC_GRAPH_ORDERING_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace dkc {

struct Ordering {
  std::vector<NodeId> rank;   // rank[v] in [0, n)
  std::vector<NodeId> nodes;  // inverse permutation

  NodeId size() const { return static_cast<NodeId>(rank.size()); }
};

/// Identity ordering: pi(v) = v.
Ordering IdentityOrdering(NodeId n);

/// Ascending-degree ordering; ties broken by node id. Used as the listing
/// DAG orientation in the straightforward baselines.
Ordering DegreeOrdering(const Graph& g);

/// Degeneracy (k-core) ordering via the Matula–Beck peeling algorithm:
/// repeatedly remove a minimum-degree node. Linear time. This is the
/// standard kClist orientation [13]: the DAG out-degree is bounded by the
/// graph's degeneracy, which is what makes k-clique listing tractable on
/// social networks (Dag::MaxOutDegree() under this order IS the degeneracy).
///
/// The order is the reversed peel sequence, and core numbers never rise
/// along it, so every c-core is a prefix. When `core_size` is non-null it
/// receives the size of the `core`-core: the nodes nodes[0, *core_size)
/// are exactly those with core number >= `core`.
Ordering DegeneracyOrdering(const Graph& g, Count core = 0,
                            NodeId* core_size = nullptr);

/// Ordering by an arbitrary per-node key, ascending; ties broken by node id.
/// Algorithm 3 uses this with key = node score s_n.
Ordering OrderByKeyAscending(const std::vector<Count>& key);

}  // namespace dkc

#endif  // DKC_GRAPH_ORDERING_H_
