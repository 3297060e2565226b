// Brute-force reference implementations and helpers shared by the tests.
// Everything here is deliberately naive: correctness oracles must not share
// code (or cleverness, or bugs) with the library under test.

#ifndef DKC_TESTS_TEST_UTIL_H_
#define DKC_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "clique/clique_store.h"
#include "gen/generators.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "util/rng.h"

namespace dkc {
namespace testing {

/// All k-subsets of nodes that are cliques, each sorted ascending.
/// O(n^k); keep n small.
inline std::vector<std::vector<NodeId>> BruteForceKCliques(const Graph& g,
                                                           int k) {
  std::vector<std::vector<NodeId>> cliques;
  std::vector<NodeId> current;
  auto extend = [&](auto&& self, NodeId start) -> void {
    if (current.size() == static_cast<size_t>(k)) {
      cliques.push_back(current);
      return;
    }
    for (NodeId v = start; v < g.num_nodes(); ++v) {
      bool ok = true;
      for (NodeId u : current) {
        if (!g.HasEdge(u, v)) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      current.push_back(v);
      self(self, v + 1);
      current.pop_back();
    }
  };
  extend(extend, 0);
  return cliques;
}

/// Exact maximum disjoint k-clique packing size by exhaustive search over
/// the brute-forced clique list. Exponential; tiny graphs only.
inline size_t BruteForceMaxDisjointPacking(const Graph& g, int k) {
  const auto cliques = BruteForceKCliques(g, k);
  size_t best = 0;
  std::vector<uint8_t> used(g.num_nodes(), 0);
  auto rec = [&](auto&& self, size_t index, size_t chosen) -> void {
    best = std::max(best, chosen);
    // Bound: even taking every remaining clique cannot beat best.
    if (chosen + (cliques.size() - index) <= best) return;
    for (size_t i = index; i < cliques.size(); ++i) {
      bool free = true;
      for (NodeId u : cliques[i]) {
        if (used[u]) {
          free = false;
          break;
        }
      }
      if (!free) continue;
      for (NodeId u : cliques[i]) used[u] = 1;
      self(self, i + 1, chosen + 1);
      for (NodeId u : cliques[i]) used[u] = 0;
    }
  };
  rec(rec, 0, 0);
  return best;
}

/// Per-node k-clique membership counts, brute force.
inline std::vector<Count> BruteForceNodeScores(const Graph& g, int k) {
  std::vector<Count> scores(g.num_nodes(), 0);
  for (const auto& clique : BruteForceKCliques(g, k)) {
    for (NodeId u : clique) ++scores[u];
  }
  return scores;
}

/// Degeneracy by repeated min-degree peeling with naive rescans.
inline Count BruteForceDegeneracy(const Graph& g) {
  const NodeId n = g.num_nodes();
  std::vector<bool> removed(n, false);
  std::vector<Count> degree(n, 0);
  for (NodeId u = 0; u < n; ++u) degree[u] = g.Degree(u);
  Count degeneracy = 0;
  for (NodeId round = 0; round < n; ++round) {
    NodeId best = kInvalidNode;
    for (NodeId u = 0; u < n; ++u) {
      if (!removed[u] && (best == kInvalidNode || degree[u] < degree[best])) {
        best = u;
      }
    }
    degeneracy = std::max(degeneracy, degree[best]);
    removed[best] = true;
    for (NodeId v : g.Neighbors(best)) {
      if (!removed[v]) --degree[v];
    }
  }
  return degeneracy;
}

/// The c-core by a naive cascade: drop every node with fewer than `c`
/// remaining neighbors, rescanning until none is left. Returns the
/// surviving node ids, ascending.
inline std::vector<NodeId> BruteForceCore(const Graph& g, Count c) {
  const NodeId n = g.num_nodes();
  std::vector<bool> alive(n, true);
  for (bool changed = true; changed;) {
    changed = false;
    for (NodeId u = 0; u < n; ++u) {
      if (!alive[u]) continue;
      Count degree = 0;
      for (NodeId v : g.Neighbors(u)) degree += alive[v] ? 1 : 0;
      if (degree < c) {
        alive[u] = false;
        changed = true;
      }
    }
  }
  std::vector<NodeId> core;
  for (NodeId u = 0; u < n; ++u) {
    if (alive[u]) core.push_back(u);
  }
  return core;
}

/// Small random simple graph via G(n, p) (deterministic per seed).
inline Graph RandomGraph(NodeId n, double p, uint64_t seed) {
  Rng rng(seed);
  auto g = ErdosRenyi(n, p, rng);
  return std::move(g).value();
}

/// Naive re-validation of a solver's output: every member must be a k-clique
/// of `g` with distinct in-range nodes, and members must be pairwise
/// node-disjoint. Returns "" on success, else a description of the first
/// violation. Independent of core/verify.cc on purpose — the differential
/// harness cross-checks the two.
inline std::string OracleCheckDisjointCliques(const Graph& g,
                                              const CliqueStore& set) {
  const int k = set.k();
  std::vector<uint8_t> used(g.num_nodes(), 0);
  for (CliqueId c = 0; c < set.size(); ++c) {
    const auto clique = set.Get(c);
    for (int i = 0; i < k; ++i) {
      const NodeId u = clique[i];
      if (u >= g.num_nodes()) {
        std::ostringstream os;
        os << "clique " << c << " node " << u << " out of range";
        return os.str();
      }
      if (used[u]) {
        std::ostringstream os;
        os << "node " << u << " used by clique " << c << " and an earlier one";
        return os.str();
      }
      used[u] = 1;
      for (int j = i + 1; j < k; ++j) {
        if (clique[i] == clique[j] || !g.HasEdge(clique[i], clique[j])) {
          std::ostringstream os;
          os << "clique " << c << " pair (" << clique[i] << "," << clique[j]
             << ") is not an edge";
          return os.str();
        }
      }
    }
  }
  return "";
}

/// True iff the nodes of `g` not used by `set` contain no k-clique, i.e.
/// `set` is maximal. Pruned recursive search restricted to free nodes.
inline bool OracleCheckMaximal(const Graph& g, const CliqueStore& set) {
  const int k = set.k();
  std::vector<uint8_t> used(g.num_nodes(), 0);
  for (CliqueId c = 0; c < set.size(); ++c) {
    for (NodeId u : set.Get(c)) used[u] = 1;
  }
  std::vector<NodeId> current;
  bool found = false;
  auto extend = [&](auto&& self, NodeId start) -> void {
    if (found) return;
    if (current.size() == static_cast<size_t>(k)) {
      found = true;
      return;
    }
    for (NodeId v = start; v < g.num_nodes() && !found; ++v) {
      if (used[v]) continue;
      bool ok = true;
      for (NodeId u : current) {
        if (!g.HasEdge(u, v)) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      current.push_back(v);
      self(self, v + 1);
      current.pop_back();
    }
  };
  extend(extend, 0);
  return !found;
}

/// Mixed-model random instance for the differential harness: cycles through
/// Erdős–Rényi, Watts–Strogatz, Barabási–Albert, and planted-partition so
/// every solver sees sparse, clustered, heavy-tailed, and community-shaped
/// graphs. Deterministic per (case_index, seed).
inline Graph RandomGraphMixed(int case_index, uint64_t seed) {
  // Sizes were doubled once the solvers moved to the bitmap neighborhood
  // kernel; the harness should keep pace with solver speed (ROADMAP).
  Rng rng(seed * 0x9E3779B9ull + static_cast<uint64_t>(case_index));
  switch (case_index % 4) {
    case 0: {
      const NodeId n = 40 + static_cast<NodeId>(case_index % 5) * 10;
      const double p = 0.20 + 0.05 * static_cast<double>(case_index % 4);
      return ErdosRenyi(n, p, rng).value();
    }
    case 1: {
      const NodeId n = 48 + static_cast<NodeId>(case_index % 3) * 16;
      return WattsStrogatz(n, 6, 0.2, rng).value();
    }
    case 2: {
      const NodeId n = 50 + static_cast<NodeId>(case_index % 4) * 12;
      return BarabasiAlbert(n, 4, rng).value();
    }
    default: {
      PlantedPartitionSpec spec;
      spec.num_communities = 4;
      spec.community_size = 14 + 2 * static_cast<NodeId>(case_index % 3);
      spec.p_in = 0.6;
      spec.p_out = 0.02;
      return PlantedPartition(spec, rng).value();
    }
  }
}

/// Canonical (sorted) form of a clique set for set-equality comparisons.
inline std::set<std::vector<NodeId>> Canonicalize(
    const std::vector<std::vector<NodeId>>& cliques) {
  std::set<std::vector<NodeId>> out;
  for (auto clique : cliques) {
    std::sort(clique.begin(), clique.end());
    out.insert(std::move(clique));
  }
  return out;
}

}  // namespace testing
}  // namespace dkc

#endif  // DKC_TESTS_TEST_UTIL_H_
