#include "core/basic_framework.h"

#include <vector>

#include "clique/neighborhood.h"
#include "graph/ordering.h"

namespace dkc {
namespace {

// FindOne (Algorithm 1, lines 14-24): depth-first search for the first
// k-clique rooted at u inside the valid part of N+(u), adapted onto the
// shared neighborhood kernel's early-stopping enumeration (paper line 16:
// "find an edge ... and form a k-clique" — first hit wins).
class FirstCliqueFinder {
 public:
  FirstCliqueFinder(const Dag& dag, const std::vector<uint8_t>& valid, int k)
      : dag_(dag), valid_(valid), k_(k) {}

  /// On success fills `clique` with u plus a (k-1)-clique from valid N+(u).
  bool FindRooted(NodeId u, std::vector<NodeId>* clique) {
    if (dag_.OutDegree(u) + 1 < static_cast<Count>(k_)) return false;
    kernel_.BuildFromRoot(dag_, u, valid_.data());
    if (kernel_.size() + 1 < static_cast<NodeId>(k_)) return false;
    bool found = false;
    kernel_.ForEachClique(k_ - 1, [&](std::span<const NodeId> nodes) {
      clique->assign(nodes.begin(), nodes.end());
      found = true;
      return false;  // stop at the first clique
    });
    return found;
  }

 private:
  const Dag& dag_;
  const std::vector<uint8_t>& valid_;
  int k_;
  NeighborhoodKernel kernel_;
};

Ordering MakeOrdering(const Graph& g, NodeOrderKind kind) {
  switch (kind) {
    case NodeOrderKind::kIdentity: return IdentityOrdering(g.num_nodes());
    case NodeOrderKind::kDegree: return DegreeOrdering(g);
    case NodeOrderKind::kDegeneracy: return DegeneracyOrdering(g);
  }
  return DegeneracyOrdering(g);
}

}  // namespace

StatusOr<SolveResult> SolveBasic(const Graph& g, const BasicOptions& options) {
  if (options.k < 3) {
    return Status::InvalidArgument("k must be >= 3 (use maximum matching for k=2)");
  }
  const Deadline deadline =
      options.budget.time_ms > 0 ? Deadline::AfterMillis(options.budget.time_ms)
                                 : Deadline::Unlimited();
  Timer timer;
  SolveResult result(options.k);

  Dag dag(g, options.orientation != nullptr ? *options.orientation
                                            : MakeOrdering(g, options.order));
  std::vector<uint8_t> valid(g.num_nodes(), 1);
  result.stats.init_ms = timer.ElapsedMillis();
  timer.Restart();

  // The sweep visits roots in rank order; each acceptance invalidates the
  // clique's nodes for every later root.
  FirstCliqueFinder finder(dag, valid, options.k);
  std::vector<NodeId> clique;
  const auto& order = dag.ordering().nodes;
  for (NodeId i = 0; i < order.size(); ++i) {
    const NodeId u = order[i];
    if ((i & 0x3FF) == 0 && deadline.Expired()) {
      return Status::TimeBudgetExceeded("basic framework");
    }
    if (valid[u] && finder.FindRooted(u, &clique)) {
      for (NodeId v : clique) valid[v] = 0;
      result.set.Add(clique);
    }
  }

  result.stats.compute_ms = timer.ElapsedMillis();
  result.stats.structure_bytes = g.MemoryBytes() + dag.MemoryBytes() +
                                 static_cast<int64_t>(valid.size()) +
                                 result.set.MemoryBytes();
  return result;
}

}  // namespace dkc
