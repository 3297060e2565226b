#include "graph/ordering.h"

#include <algorithm>
#include <numeric>

namespace dkc {
namespace {

Ordering FromNodeSequence(std::vector<NodeId> nodes) {
  Ordering o;
  o.rank.assign(nodes.size(), 0);
  for (NodeId i = 0; i < nodes.size(); ++i) o.rank[nodes[i]] = i;
  o.nodes = std::move(nodes);
  return o;
}

// Matula–Beck bucket peeling. Returns the peel sequence. A neighbor is
// never decremented below the removed node's bucket, so each node leaves at
// its core number, and those never fall along the sequence. `core_start`,
// when non-null, receives the first position whose core number is >= `core`
// (n if none): the `core`-core is the suffix from there.
std::vector<NodeId> PeelSequence(const Graph& g, Count core,
                                 NodeId* core_start) {
  const NodeId n = g.num_nodes();
  std::vector<Count> deg(n);
  Count max_deg = 0;
  for (NodeId u = 0; u < n; ++u) {
    deg[u] = g.Degree(u);
    max_deg = std::max(max_deg, deg[u]);
  }

  // Bucket queue: nodes grouped by current degree, with per-node positions so
  // a degree decrement is an O(1) swap.
  std::vector<NodeId> bucket_start(max_deg + 2, 0);
  for (NodeId u = 0; u < n; ++u) ++bucket_start[deg[u] + 1];
  for (size_t d = 1; d < bucket_start.size(); ++d) {
    bucket_start[d] += bucket_start[d - 1];
  }
  std::vector<NodeId> order(n);       // nodes grouped by degree
  std::vector<NodeId> pos(n);         // position of node in `order`
  {
    std::vector<NodeId> cursor(bucket_start.begin(), bucket_start.end() - 1);
    for (NodeId u = 0; u < n; ++u) {
      pos[u] = cursor[deg[u]];
      order[pos[u]] = u;
      ++cursor[deg[u]];
    }
  }

  std::vector<bool> removed(n, false);
  std::vector<NodeId> seq;
  seq.reserve(n);
  NodeId first_in_core = n;
  for (NodeId i = 0; i < n; ++i) {
    const NodeId u = order[i];
    removed[u] = true;
    if (first_in_core == n && deg[u] >= core) first_in_core = i;
    seq.push_back(u);
    for (NodeId v : g.Neighbors(u)) {
      if (removed[v] || deg[v] <= deg[u]) continue;
      // Move v to the front of its bucket, then shrink the bucket by one.
      const Count dv = deg[v];
      const NodeId front = bucket_start[dv] > i + 1
                               ? bucket_start[dv]
                               : static_cast<NodeId>(i + 1);
      const NodeId w = order[front];
      std::swap(order[pos[v]], order[front]);
      std::swap(pos[v], pos[w]);
      bucket_start[dv] = front + 1;
      --deg[v];
    }
  }
  if (core_start != nullptr) *core_start = first_in_core;
  return seq;
}

}  // namespace

Ordering IdentityOrdering(NodeId n) {
  std::vector<NodeId> nodes(n);
  std::iota(nodes.begin(), nodes.end(), 0);
  return FromNodeSequence(std::move(nodes));
}

Ordering DegreeOrdering(const Graph& g) {
  std::vector<Count> key(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) key[u] = g.Degree(u);
  return OrderByKeyAscending(key);
}

Ordering DegeneracyOrdering(const Graph& g, Count core, NodeId* core_size) {
  // Reverse of the peel sequence: a node's lower-ranked neighbors are the
  // ones peeled *after* it, and there are at most `degeneracy` of those.
  // Dag orients edges toward lower rank, so this caps DAG out-degrees by
  // the degeneracy — the property kClist's complexity bound needs.
  NodeId core_start = 0;
  std::vector<NodeId> seq = PeelSequence(g, core, &core_start);
  if (core_size != nullptr) *core_size = g.num_nodes() - core_start;
  std::reverse(seq.begin(), seq.end());
  return FromNodeSequence(std::move(seq));
}

Ordering OrderByKeyAscending(const std::vector<Count>& key) {
  std::vector<NodeId> nodes(key.size());
  std::iota(nodes.begin(), nodes.end(), 0);
  std::stable_sort(nodes.begin(), nodes.end(), [&key](NodeId a, NodeId b) {
    if (key[a] != key[b]) return key[a] < key[b];
    return a < b;
  });
  return FromNodeSequence(std::move(nodes));
}

}  // namespace dkc
