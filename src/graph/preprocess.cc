#include "graph/preprocess.h"

#include <utility>

#include "util/timer.h"

namespace dkc {

PreprocessResult PreprocessForKCliques(const Graph& g,
                                       const PreprocessOptions& options) {
  Timer timer;
  PreprocessResult result;
  PreprocessStats& stats = result.stats;
  const NodeId n = g.num_nodes();
  stats.nodes_before = n;
  stats.edges_before = g.num_edges();

  // k < 3 has no meaningful prune rule (the library's solvers reject it
  // anyway): a zero threshold keeps every node. Otherwise the survivors are
  // the (k-1)-core, the first `keep` nodes of the degeneracy order.
  const Count threshold =
      options.k < 3 ? 0 : static_cast<Count>(options.k) - 1;
  NodeId keep = 0;
  Ordering original = DegeneracyOrdering(g, threshold, &keep);
  stats.peeled_nodes = n - keep;

  // Nothing peeled — the dense clustered case: the input IS the pruned
  // graph, oriented by its own degeneracy order.
  if (keep == n) {
    stats.nodes_after = n;
    stats.edges_after = stats.edges_before;
    result.orientation = std::move(original);
    stats.elapsed_ms = timer.ElapsedMillis();
    return result;
  }

  // Ascending (order-preserving) remap of the survivors, then a compact CSR
  // over them. The remap is monotone, so every row stays sorted.
  const std::vector<NodeId>& rank = original.rank;
  result.old_to_new.assign(n, kInvalidNode);
  result.new_to_old.reserve(keep);
  for (NodeId u = 0; u < n; ++u) {
    if (rank[u] >= keep) continue;
    result.old_to_new[u] = static_cast<NodeId>(result.new_to_old.size());
    result.new_to_old.push_back(u);
  }
  std::vector<Count> offsets(keep + 1, 0);
  std::vector<NodeId> neighbors;
  for (NodeId pu = 0; pu < keep; ++pu) {
    for (NodeId v : g.Neighbors(result.new_to_old[pu])) {
      if (rank[v] < keep) neighbors.push_back(result.old_to_new[v]);
    }
    offsets[pu + 1] = neighbors.size();
  }
  result.pruned = Graph(std::move(offsets), std::move(neighbors));
  stats.nodes_after = keep;
  stats.edges_after = result.pruned.num_edges();
  stats.peeled_edges = stats.edges_before - stats.edges_after;

  // The original degeneracy order's prefix under the remap: pairwise rank
  // comparisons among surviving nodes — and hence the DAG orientation and
  // every DFS tie-break — match the unpruned run.
  result.orientation.nodes.resize(keep);
  result.orientation.rank.resize(keep);
  for (NodeId i = 0; i < keep; ++i) {
    const NodeId mapped = result.old_to_new[original.nodes[i]];
    result.orientation.nodes[i] = mapped;
    result.orientation.rank[mapped] = i;
  }

  stats.elapsed_ms = timer.ElapsedMillis();
  return result;
}

}  // namespace dkc
