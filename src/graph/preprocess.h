// Graph-shrinking preprocessing for k-clique workloads.
//
// A node can participate in a disjoint k-clique solution only if it lies in
// at least one k-clique, and on the sparse real graphs the paper targets
// most nodes do not. One classical necessary condition prunes them without
// ever listing a clique: every node of a k-clique has k-1 co-members, so any
// node whose degree drops below k-1 can be peeled, cascading — the
// (k-1)-core. The survivors are compacted into a CSR with an ascending-order
// id remap and a back-mapping to original ids.
//
// There is deliberately no edge-level (triangle-support) rule: edges that
// lie in too few triangles are ones the solvers' degeneracy-oriented DFS
// discards almost for free, and counting supports cost more than every
// solve it shortened (the kClist lineage makes the same call).
//
// Safety: a k-clique's nodes keep degree >= k-1 as long as the clique
// itself is intact, which it always is, so no node or edge of any k-clique
// is ever removed. The pruned graph contains *exactly* the k-cliques of the
// input.
//
// One pass: the (k-1)-core is a prefix of the degeneracy order
// (DegeneracyOrdering reports its length), so the order the solvers need
// anyway also decides the peel. The cost is that ordering plus compaction
// of the survivors; when nothing is peeled there is no compaction and no
// id map at all.
//
// Determinism: the pruned graph is oriented by the ORIGINAL graph's
// degeneracy order restricted to the survivors (`orientation` below) —
// the order's prefix under the remap. Because the id remap is ascending and
// every k-clique survives with all its edges, each solver's DFS sees the
// same surviving branches in the same relative order as on the unpruned
// graph — removed nodes only ever contributed dead branches — so solutions
// are byte-identical with preprocessing on or off (the differential harness
// asserts exactly this for all five methods).

#ifndef DKC_GRAPH_PREPROCESS_H_
#define DKC_GRAPH_PREPROCESS_H_

#include <vector>

#include "graph/graph.h"
#include "graph/ordering.h"

namespace dkc {

class ThreadPool;

struct PreprocessOptions {
  int k = 3;
  /// Ignored: preprocessing is the serial degeneracy peel. Kept only
  /// because the end-to-end benchmark still sets it; it goes away with the
  /// next change to the benchmark.
  ThreadPool* pool = nullptr;
};

/// Per-phase accounting, surfaced through SolveResult and the dkc CLI.
struct PreprocessStats {
  NodeId nodes_before = 0;
  Count edges_before = 0;
  NodeId nodes_after = 0;
  Count edges_after = 0;
  /// Nodes peeled by the (k-1)-core cascade.
  NodeId peeled_nodes = 0;
  /// Edges dropped because an endpoint was peeled (all removed edges).
  Count peeled_edges = 0;
  /// Always 0: no edge-level prune rule exists any more. Kept only because
  /// the end-to-end benchmark still reports it; it goes away with the next
  /// change to the benchmark.
  Count unsupported_edges = 0;
  double elapsed_ms = 0.0;

  NodeId nodes_removed() const { return nodes_before - nodes_after; }
  Count edges_removed() const { return edges_before - edges_after; }
};

struct PreprocessResult {
  /// Compact CSR over the surviving nodes, ids remapped ascending (the
  /// remap is monotone: u < v in original ids iff their pruned ids are
  /// ordered the same way). Empty, like both maps, when nothing was peeled
  /// (stats.peeled_nodes == 0): the input itself is the pruned graph.
  Graph pruned;
  /// pruned id -> original id, ascending.
  std::vector<NodeId> new_to_old;
  /// original id -> pruned id, kInvalidNode for removed nodes.
  std::vector<NodeId> old_to_new;
  /// The total order to orient the pruned graph with (see header comment);
  /// when nothing was peeled, DegeneracyOrdering of the input.
  Ordering orientation;
  PreprocessStats stats;
};

/// Runs the (k-1)-core peel for k-clique workloads (k >= 3; smaller k
/// peels nothing).
PreprocessResult PreprocessForKCliques(const Graph& g,
                                       const PreprocessOptions& options);

}  // namespace dkc

#endif  // DKC_GRAPH_PREPROCESS_H_
