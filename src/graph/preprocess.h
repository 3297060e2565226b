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
// Determinism: in the default mode the pruned graph is meant to be oriented
// by the ORIGINAL graph's degeneracy order restricted to the survivors
// (`orientation` below). Because the id remap is ascending and every
// k-clique survives with all its edges, each solver's DFS sees the same
// surviving branches in the same relative order as on the unpruned graph —
// removed nodes only ever contributed dead branches — so solutions are
// byte-identical with preprocessing on or off (the differential harness
// asserts exactly this for all five methods). The opt-in `reorder` mode
// recomputes the degeneracy order on the pruned graph instead: denser
// kernels, still-valid solutions, but no byte-identity promise.

#ifndef DKC_GRAPH_PREPROCESS_H_
#define DKC_GRAPH_PREPROCESS_H_

#include <vector>

#include "graph/graph.h"
#include "graph/ordering.h"

namespace dkc {

class ThreadPool;

struct PreprocessOptions {
  int k = 3;
  /// false: orientation = original degeneracy order restricted to survivors
  /// (solver results byte-identical to no preprocessing). true: recompute
  /// the degeneracy order on the pruned graph.
  bool reorder = false;
  /// When given, the (k-1)-core peel runs as per-range peels followed
  /// by a global cascade to the fixpoint. The peel is a confluent chaotic
  /// iteration, so the surviving set — and with it every downstream
  /// artifact and statistic — is identical to the serial cascade at any
  /// thread count.
  ThreadPool* pool = nullptr;
  /// Smallest graph (node count) worth fanning the peel out for; below it
  /// the serial cascade wins. Tests set 0 to force the parallel path.
  NodeId parallel_peel_min_nodes = 4096;
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
  bool reordered = false;

  NodeId nodes_removed() const { return nodes_before - nodes_after; }
  Count edges_removed() const { return edges_before - edges_after; }
};

struct PreprocessResult {
  /// Compact CSR over the surviving nodes, ids remapped ascending (the
  /// remap is monotone: u < v in original ids iff their pruned ids are
  /// ordered the same way).
  Graph pruned;
  /// pruned id -> original id, ascending.
  std::vector<NodeId> new_to_old;
  /// original id -> pruned id, kInvalidNode for removed nodes.
  std::vector<NodeId> old_to_new;
  /// The total order to orient `pruned` with (see header comment).
  Ordering orientation;
  PreprocessStats stats;
};

/// Runs the (k-1)-core peel for k-clique workloads (k >= 3; smaller k
/// passes the graph through unchanged).
PreprocessResult PreprocessForKCliques(const Graph& g,
                                       const PreprocessOptions& options);

}  // namespace dkc

#endif  // DKC_GRAPH_PREPROCESS_H_
