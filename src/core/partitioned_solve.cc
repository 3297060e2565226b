// Partition-parallel HG/GC/L/LP with deterministic boundary stitching.
//
// Shared structure: the (preprocessed) graph is split into P partitions
// (partition/partition.h) whose local graphs are induced on owned ∪ ghost
// nodes with a monotone id remap. For an owned root u the local kernel
// universe {u} ∪ N+(u) — and every edge inside it — is present locally, so
// any per-root search on the local DAG returns exactly what the global
// kernel would, with identical DFS order (sorted rows map to sorted rows).
// Each method then differs only in how per-root results are combined:
//
//  * GC — cliques are enumerated per owned root (partition-parallel) and
//    stitched by replaying the global ascending-root order through
//    per-partition cursors: the rebuilt store is byte-identical to the
//    serial listing, so clique ids, the (score, id) sort, and the greedy
//    pass are unchanged.
//
//  * L/LP — the scoring pass is a per-root sum (exact at any split), the
//    heap-init pass runs per owned root under an all-valid mask (entries
//    identical to the serial HeapInit), and the calculation loop is the
//    serial engine verbatim: the heap's strict (score, root_rank) total
//    order makes pop order independent of push order.
//
//  * HG — the rank-order sweep is inherently sequential, so each partition
//    runs it speculatively with certainty tracking. Per partition, K is
//    the set of nodes *certainly* consumed (by accepts whose entire
//    universe was certain) and U the set of nodes whose fate may depend on
//    another partition — seeded with every ghost and every owned node with
//    a higher-rank out-of-partition neighbor (a "remote attacker"), and
//    grown by N+[u] of every uncertain local find. Invariant (induction
//    over the partition's rank sweep): for any local node v ∉ U, ¬K(v)
//    equals the true serial validity of v — a consumer of v is either v's
//    remote higher-rank neighbor (then v ∈ U by seed) or a local root
//    processed earlier, whose outcome was certain (exact kill recorded in
//    K) or uncertain (then v ∈ N+[root] ⊆ U). Three outcomes per root:
//      - certain skip: root certainly consumed, too few out-neighbors, or
//        no clique under the ¬K mask (a superset of the true mask — no
//        find under a superset is conclusive);
//      - certain accept: a find with {u} ∪ N+(u) disjoint from U — by the
//        invariant the masked search equals the serial one, so this IS the
//        serial decision; committed locally;
//      - hint: a find whose universe touches U — recorded for the stitch.
//    The serial stitch walks the global rank order with the true mask:
//    certain accepts are applied as-is (O(k)), hints are freshness-checked
//    (a fully valid hint is the serial first-find by the speculative-batch
//    superset argument; a stale one is re-searched under the true mask).
//    With P=1 there are no ghosts and no seeds, so every root is certain
//    and the sweep is bit-for-bit the unpartitioned engine.
//
// All three stitches consume per-root records written to disjoint slots
// (each root has exactly one owner), so results are independent of thread
// count and of partition execution order.

#include "core/partitioned_solve.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <numeric>
#include <utility>
#include <vector>

#include "clique/kclique.h"
#include "clique/neighborhood.h"
#include "core/clique_score.h"
#include "graph/dag.h"
#include "graph/ordering.h"
#include "graph/preprocess.h"
#include "partition/partition.h"
#include "util/memory.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace dkc {
namespace {

// One task per partition on the pool (serial fallback without one). Tasks
// write only their own partition's state plus per-root slots they own.
void RunPerPartition(ThreadPool* pool, size_t count,
                     const std::function<void(size_t)>& body) {
  if (pool != nullptr && pool->num_threads() > 1 && count > 1) {
    for (size_t p = 0; p < count; ++p) {
      pool->Submit([&body, p] { body(p); });
    }
    pool->Wait();
  } else {
    for (size_t p = 0; p < count; ++p) body(p);
  }
}

// First k-clique rooted at u inside the masked N+(u) — the FindOne of the
// basic framework, over any DAG (global or partition-local).
class FirstFinder {
 public:
  FirstFinder(const Dag& dag, const std::vector<uint8_t>& valid, int k,
              KernelArena* arena = nullptr)
      : dag_(dag), valid_(valid), k_(k), kernel_(arena) {}

  bool Find(NodeId u, std::vector<NodeId>* clique) {
    if (dag_.OutDegree(u) + 1 < static_cast<Count>(k_)) return false;
    kernel_.BuildFromRoot(dag_, u, valid_.data());
    if (kernel_.size() + 1 < static_cast<NodeId>(k_)) return false;
    bool found = false;
    kernel_.ForEachClique(k_ - 1, [&](std::span<const NodeId> nodes) {
      clique->assign(nodes.begin(), nodes.end());
      found = true;
      return false;  // first hit wins
    });
    return found;
  }

 private:
  const Dag& dag_;
  const std::vector<uint8_t>& valid_;
  int k_;
  NeighborhoodKernel kernel_;
};

// Minimum-clique-score k-clique rooted at u — the FindMin of the
// lightweight solver (root included in the output, unlike the kernel call).
class MinFinder {
 public:
  MinFinder(const Dag& dag, const std::vector<uint8_t>& valid,
            const std::vector<Count>& scores, int k, bool prune,
            KernelArena* arena = nullptr)
      : dag_(dag),
        valid_(valid),
        scores_(scores),
        k_(k),
        prune_(prune),
        kernel_(arena) {}

  bool Find(NodeId u, std::vector<NodeId>* clique, Count* clique_score) {
    if (dag_.OutDegree(u) + 1 < static_cast<Count>(k_)) return false;
    kernel_.BuildFromRoot(dag_, u, valid_.data());
    if (kernel_.size() + 1 < static_cast<NodeId>(k_)) return false;
    if (!kernel_.FindMinScoreClique(k_ - 1, scores_, scores_[u], prune_,
                                    &rest_, clique_score)) {
      return false;
    }
    clique->clear();
    clique->push_back(u);
    clique->insert(clique->end(), rest_.begin(), rest_.end());
    return true;
  }

 private:
  const Dag& dag_;
  const std::vector<uint8_t>& valid_;
  const std::vector<Count>& scores_;
  int k_;
  bool prune_;
  NeighborhoodKernel kernel_;
  std::vector<NodeId> rest_;
};

struct HeapEntry {
  Count score;
  NodeId root_rank;  // rank of nodes[0] in the score order (unique per root)
  std::vector<NodeId> nodes;
};

struct HeapCompare {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    if (a.score != b.score) return a.score > b.score;
    return a.root_rank > b.root_rank;
  }
};

// ------------------------------------------------------------------- HG ---

StatusOr<SolveResult> RunHg(const Graph& g, const Ordering& orientation,
                            std::vector<GraphPartition>& parts,
                            const SolverOptions& options,
                            const Deadline& deadline) {
  Timer timer;
  SolveResult result(options.k);
  const NodeId n = g.num_nodes();
  const int k = options.k;

  enum : uint8_t { kSkip = 0, kAccept = 1, kHint = 2 };
  std::vector<uint8_t> outcome(n, kSkip);
  // One k-slot per root; each partition writes only its owned roots.
  std::vector<NodeId> found(static_cast<size_t>(n) * k);
  std::atomic<bool> expired{false};

  RunPerPartition(options.pool, parts.size(), [&](size_t pi) {
    GraphPartition& part = parts[pi];
    Timer part_timer;
    const NodeId local_n = part.local.num_nodes();
    if (local_n == 0) return;
    Dag dag(part.local, part.orientation);
    std::vector<uint8_t> mask(local_n, 1);  // ¬K: certain kills only
    std::vector<uint8_t> uncertain = part.uncertain0;
    KernelArena arena;
    FirstFinder finder(dag, mask, k, &arena);
    std::vector<NodeId> clique;
    Count roots_seen = 0;
    for (NodeId lu : part.orientation.nodes) {  // ascending global rank
      if (part.owned[lu] == 0) continue;
      if ((++roots_seen & 0x3FF) == 0 && deadline.Expired()) {
        expired.store(true, std::memory_order_relaxed);
        break;
      }
      if (mask[lu] == 0) continue;          // certainly consumed
      if (!finder.Find(lu, &clique)) continue;  // conclusive under ¬K ⊇ true
      bool is_uncertain = uncertain[lu] != 0;
      if (!is_uncertain) {
        for (NodeId v : dag.OutNeighbors(lu)) {
          if (uncertain[v] != 0) {
            is_uncertain = true;
            break;
          }
        }
      }
      const NodeId gu = part.new_to_old[lu];
      NodeId* slot = found.data() + static_cast<size_t>(gu) * k;
      for (int j = 0; j < k; ++j) slot[j] = part.new_to_old[clique[j]];
      if (!is_uncertain) {
        outcome[gu] = kAccept;
        for (NodeId v : clique) mask[v] = 0;
        ++part.stats.local_committed;
      } else {
        outcome[gu] = kHint;
        uncertain[lu] = 1;
        for (NodeId v : dag.OutNeighbors(lu)) uncertain[v] = 1;
        ++part.stats.stitch_deferred;
      }
    }
    part.stats.elapsed_ms = part_timer.ElapsedMillis();
  });
  if (expired.load()) {
    return Status::TimeBudgetExceeded("partitioned basic framework");
  }

  // Serial stitch in global rank order under the true mask.
  Dag dag(g, orientation);
  result.stats.init_ms = timer.ElapsedMillis();
  timer.Restart();
  std::vector<uint8_t> valid(n, 1);
  FirstFinder finder(dag, valid, k);
  std::vector<NodeId> clique;
  auto accept = [&](std::span<const NodeId> nodes) {
    for (NodeId v : nodes) valid[v] = 0;
    result.set.Add(nodes);
  };
  const auto& order = orientation.nodes;
  for (NodeId i = 0; i < order.size(); ++i) {
    const NodeId u = order[i];
    if ((i & 0x3FF) == 0 && deadline.Expired()) {
      return Status::TimeBudgetExceeded("partitioned basic framework");
    }
    if (outcome[u] == kSkip) continue;
    const std::span<const NodeId> slot(found.data() +
                                           static_cast<size_t>(u) * k,
                                       static_cast<size_t>(k));
    if (outcome[u] == kAccept) {  // proven fresh by the certainty invariant
      accept(slot);
      continue;
    }
    // Hint: exactly the speculative-batch drain of the serial engine.
    if (valid[u] == 0 || dag.OutDegree(u) + 1 < static_cast<Count>(k)) {
      continue;
    }
    bool fresh = true;
    for (NodeId v : slot) {
      if (valid[v] == 0) {
        fresh = false;
        break;
      }
    }
    if (fresh) {
      accept(slot);
    } else if (finder.Find(u, &clique)) {
      accept(clique);
    }
  }

  result.stats.compute_ms = timer.ElapsedMillis();
  int64_t partition_bytes = 0;
  for (const GraphPartition& part : parts) {
    partition_bytes += part.local.MemoryBytes();
  }
  result.stats.structure_bytes = g.MemoryBytes() + dag.MemoryBytes() +
                                 partition_bytes +
                                 static_cast<int64_t>(valid.size()) +
                                 result.set.MemoryBytes();
  return result;
}

// ------------------------------------------------------------------- GC ---

StatusOr<SolveResult> RunGc(const Graph& g, const Ordering& orientation,
                            std::vector<GraphPartition>& parts,
                            std::span<const int> owner,
                            const SolverOptions& options,
                            const Deadline& deadline) {
  Timer timer;
  SolveResult result(options.k);
  const NodeId n = g.num_nodes();
  const int k = options.k;
  MemoryBudget memory(options.budget.memory_bytes);

  // Phase A (partition-parallel): list the cliques rooted at each owned
  // node, in ascending global id per partition (local ids are monotone in
  // global ids), into a per-partition store of global-id cliques.
  std::vector<CliqueStore> stores(parts.size(), CliqueStore(k));
  std::vector<std::vector<Count>> part_scores(parts.size());
  std::vector<Count> root_count(n, 0);
  std::atomic<bool> expired{false};
  std::atomic<bool> oom{false};

  RunPerPartition(options.pool, parts.size(), [&](size_t pi) {
    GraphPartition& part = parts[pi];
    Timer part_timer;
    const NodeId local_n = part.local.num_nodes();
    part_scores[pi].assign(local_n, 0);
    if (local_n == 0) return;
    Dag dag(part.local, part.orientation);
    KernelArena arena;
    KCliqueEnumerator enumerator(dag, k, &arena);
    CliqueStore& store = stores[pi];
    std::vector<Count>& scores = part_scores[pi];
    std::vector<NodeId> mapped(static_cast<size_t>(k));
    Count roots_seen = 0;
    for (NodeId lu = 0; lu < local_n; ++lu) {
      if (part.owned[lu] == 0) continue;
      if ((++roots_seen & 0x3F) == 0 && deadline.Expired()) {
        expired.store(true, std::memory_order_relaxed);
        return;
      }
      Count listed = 0;
      enumerator.ForEachRooted(lu, [&](std::span<const NodeId> nodes) {
        for (int j = 0; j < k; ++j) {
          ++scores[nodes[j]];
          mapped[j] = part.new_to_old[nodes[j]];
        }
        store.Add(mapped);
        ++listed;
        return true;
      });
      if (listed > 0) {
        root_count[part.new_to_old[lu]] = listed;
        if (!memory.Charge(static_cast<int64_t>(listed) * k *
                           static_cast<int64_t>(sizeof(NodeId)))) {
          oom.store(true, std::memory_order_relaxed);
          return;
        }
      }
    }
    part.stats.local_committed = store.size();
    part.stats.elapsed_ms = part_timer.ElapsedMillis();
  });
  if (expired.load()) return Status::TimeBudgetExceeded("partitioned GC");
  if (oom.load()) return Status::MemoryBudgetExceeded("partitioned GC");

  // Phase B (serial stitch): rebuild the global store by replaying the
  // ascending-root enumeration order through per-partition cursors — each
  // partition's store is already grouped by root in that order — and sum
  // the per-partition score vectors in partition order. Byte-identical to
  // the serial ListKCliques store (same cliques, same clique ids).
  CliqueStore all(k);
  {
    Count total = 0;
    for (const CliqueStore& store : stores) total += store.size();
    all.Reserve(total);
  }
  std::vector<CliqueId> cursor(parts.size(), 0);
  for (NodeId u = 0; u < n; ++u) {
    const int p = owner[u];
    CliqueId& c = cursor[p];
    for (Count i = 0; i < root_count[u]; ++i) all.Add(stores[p].Get(c++));
  }
  std::vector<Count> node_scores(n, 0);
  for (size_t pi = 0; pi < parts.size(); ++pi) {
    const GraphPartition& part = parts[pi];
    for (NodeId lu = 0; lu < part.local.num_nodes(); ++lu) {
      node_scores[part.new_to_old[lu]] += part_scores[pi][lu];
    }
  }
  result.stats.cliques_listed = all.size();

  // Clique scores, the (score, id) total order, and the greedy pass are the
  // serial GC verbatim from here on.
  std::vector<Count> clique_score(all.size());
  for (CliqueId c = 0; c < all.size(); ++c) {
    clique_score[c] = CliqueScoreOf(all.Get(c), node_scores);
  }
  std::vector<CliqueId> order(all.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](CliqueId a, CliqueId b) {
    if (clique_score[a] != clique_score[b]) {
      return clique_score[a] < clique_score[b];
    }
    return a < b;
  });
  result.stats.init_ms = timer.ElapsedMillis();
  timer.Restart();

  std::vector<uint8_t> used(n, 0);
  for (CliqueId c : order) {
    auto nodes = all.Get(c);
    bool disjoint = true;
    for (NodeId u : nodes) {
      if (used[u] != 0) {
        disjoint = false;
        break;
      }
    }
    if (!disjoint) continue;
    for (NodeId u : nodes) used[u] = 1;
    result.set.Add(nodes);
  }

  result.stats.compute_ms = timer.ElapsedMillis();
  int64_t partition_bytes = 0;
  for (const GraphPartition& part : parts) {
    partition_bytes += part.local.MemoryBytes();
  }
  Dag dag(g, orientation);  // accounted like the serial GC's listing DAG
  result.stats.structure_bytes =
      g.MemoryBytes() + dag.MemoryBytes() + partition_bytes +
      all.MemoryBytes() +
      static_cast<int64_t>(node_scores.capacity() * sizeof(Count)) +
      static_cast<int64_t>(clique_score.capacity() * sizeof(Count)) +
      static_cast<int64_t>(order.capacity() * sizeof(CliqueId)) +
      result.set.MemoryBytes();
  return result;
}

// ----------------------------------------------------------------- L/LP ---

StatusOr<SolveResult> RunLightweight(const Graph& g,
                                     const Ordering& orientation,
                                     std::vector<GraphPartition>& parts,
                                     const SolverOptions& options,
                                     const Deadline& deadline) {
  Timer timer;
  SolveResult result(options.k);
  const NodeId n = g.num_nodes();
  const int k = options.k;
  const bool prune = options.method == Method::kLP;
  std::atomic<bool> expired{false};

  // Phase 1 (partition-parallel): node scores via per-owned-root counting
  // on the restricted counting orientation. Each clique is counted once by
  // its root's owner, so summing the per-partition vectors (plain integer
  // addition) reproduces the serial ComputeNodeScores exactly.
  std::vector<std::vector<Count>> part_scores(parts.size());
  std::vector<Count> part_total(parts.size(), 0);
  RunPerPartition(options.pool, parts.size(), [&](size_t pi) {
    GraphPartition& part = parts[pi];
    Timer part_timer;
    const NodeId local_n = part.local.num_nodes();
    part_scores[pi].assign(local_n, 0);
    if (local_n == 0) return;
    Dag dag(part.local, part.orientation);
    KernelArena arena;
    KCliqueEnumerator enumerator(dag, k, &arena);
    Count roots_seen = 0;
    for (NodeId lu = 0; lu < local_n; ++lu) {
      if (part.owned[lu] == 0) continue;
      if ((++roots_seen & 0x3F) == 0 && deadline.Expired()) {
        expired.store(true, std::memory_order_relaxed);
        return;
      }
      part_total[pi] += enumerator.ScoreRooted(lu, &part_scores[pi]);
    }
    part.stats.elapsed_ms = part_timer.ElapsedMillis();
  });
  if (expired.load()) {
    return Status::TimeBudgetExceeded("partitioned lightweight scoring pass");
  }
  std::vector<Count> scores(n, 0);
  Count total_cliques = 0;
  for (size_t pi = 0; pi < parts.size(); ++pi) {
    const GraphPartition& part = parts[pi];
    for (NodeId lu = 0; lu < part.local.num_nodes(); ++lu) {
      scores[part.new_to_old[lu]] += part_scores[pi][lu];
    }
    total_cliques += part_total[pi];
  }
  result.stats.cliques_listed = total_cliques;

  // Phase 2 (partition-parallel): HeapInit — one locally minimum clique
  // per owned root under an all-valid mask, on the score order restricted
  // to the partition. Entries carry global ids and the GLOBAL score rank.
  Ordering score_order = OrderByKeyAscending(scores);
  std::vector<std::vector<HeapEntry>> part_entries(parts.size());
  RunPerPartition(options.pool, parts.size(), [&](size_t pi) {
    GraphPartition& part = parts[pi];
    Timer part_timer;
    const NodeId local_n = part.local.num_nodes();
    if (local_n == 0) return;
    Dag dag(part.local,
            RestrictOrdering(score_order, part.old_to_new, local_n));
    std::vector<Count> local_scores(local_n);
    for (NodeId lu = 0; lu < local_n; ++lu) {
      local_scores[lu] = scores[part.new_to_old[lu]];
    }
    std::vector<uint8_t> all_valid(local_n, 1);
    KernelArena arena;
    MinFinder finder(dag, all_valid, local_scores, k, prune, &arena);
    std::vector<NodeId> clique;
    Count clique_score = 0;
    Count roots_seen = 0;
    for (NodeId lu = 0; lu < local_n; ++lu) {
      if (part.owned[lu] == 0) continue;
      if ((++roots_seen & 0x3F) == 0 && deadline.Expired()) {
        expired.store(true, std::memory_order_relaxed);
        return;
      }
      if (!finder.Find(lu, &clique, &clique_score)) continue;
      HeapEntry entry;
      entry.score = clique_score;
      entry.root_rank = score_order.rank[part.new_to_old[lu]];
      entry.nodes.reserve(static_cast<size_t>(k));
      for (NodeId v : clique) entry.nodes.push_back(part.new_to_old[v]);
      part_entries[pi].push_back(std::move(entry));
    }
    part.stats.local_committed = part_entries[pi].size();
    part.stats.elapsed_ms += part_timer.ElapsedMillis();
  });
  if (expired.load()) {
    return Status::TimeBudgetExceeded("partitioned lightweight heap init");
  }

  // Phase 3 (serial): the calculation loop of the serial engine, verbatim.
  // The heap's (score, root_rank) order is strict — root_rank is unique
  // per entry — so pop order (and hence the solution) does not depend on
  // the order entries are pushed in.
  std::vector<HeapEntry> heap;  // binary heap under HeapCompare
  for (auto& entries : part_entries) {
    for (auto& entry : entries) heap.push_back(std::move(entry));
  }
  std::make_heap(heap.begin(), heap.end(), HeapCompare{});
  Dag dag(g, std::move(score_order));
  std::vector<uint8_t> valid(n, 1);
  result.stats.init_ms = timer.ElapsedMillis();
  timer.Restart();
  {
    MinFinder finder(dag, valid, scores, k, prune);
    std::vector<NodeId> clique;
    Count clique_score = 0;
    uint64_t pops = 0;
    while (!heap.empty()) {
      if ((++pops & 0xFF) == 0 && deadline.Expired()) {
        return Status::TimeBudgetExceeded(
            "partitioned lightweight calculation loop");
      }
      std::pop_heap(heap.begin(), heap.end(), HeapCompare{});
      HeapEntry top = std::move(heap.back());
      heap.pop_back();
      bool fresh = true;
      for (NodeId v : top.nodes) {
        if (valid[v] == 0) {
          fresh = false;
          break;
        }
      }
      if (fresh) {
        for (NodeId v : top.nodes) valid[v] = 0;
        result.set.Add(top.nodes);
        continue;
      }
      const NodeId root = top.nodes[0];
      if (valid[root] != 0 &&
          dag.OutDegree(root) + 1 >= static_cast<Count>(k)) {
        if (finder.Find(root, &clique, &clique_score)) {
          heap.push_back(
              HeapEntry{clique_score, dag.ordering().rank[root], clique});
          std::push_heap(heap.begin(), heap.end(), HeapCompare{});
        }
      }
    }
  }

  result.stats.compute_ms = timer.ElapsedMillis();
  int64_t partition_bytes = 0;
  for (const GraphPartition& part : parts) {
    partition_bytes += part.local.MemoryBytes();
  }
  result.stats.structure_bytes =
      g.MemoryBytes() + dag.MemoryBytes() + partition_bytes +
      static_cast<int64_t>(scores.capacity() * sizeof(Count)) +
      static_cast<int64_t>(valid.capacity()) +
      static_cast<int64_t>(n) * static_cast<int64_t>(sizeof(HeapEntry) +
                                                     k * sizeof(NodeId)) +
      result.set.MemoryBytes();
  (void)orientation;  // L/LP orient phase 2/3 by score, not the solve order
  return result;
}

}  // namespace

StatusOr<SolveResult> PartitionedSolve(const Graph& g,
                                       const SolverOptions& options) {
  if (options.k < 3) {
    return Status::InvalidArgument("k must be >= 3");
  }
  if (options.method == Method::kOPT) {
    return Status::InvalidArgument("partitioned solve does not support OPT");
  }
  const Deadline deadline =
      options.budget.time_ms > 0 ? Deadline::AfterMillis(options.budget.time_ms)
                                 : Deadline::Unlimited();
  Timer timer;

  // Preprocess exactly like the Solve facade (the pool additionally drives
  // the per-range peel inside PreprocessForKCliques).
  PreprocessResult pre;
  bool preprocessed = false;
  bool remap = false;
  if (options.preprocess) {
    PreprocessOptions preprocess_options;
    preprocess_options.k = options.k;
    preprocess_options.reorder = options.preprocess_reorder;
    preprocess_options.pool = options.pool;
    pre = PreprocessForKCliques(g, preprocess_options);
    preprocessed = true;
    remap = pre.stats.nodes_removed() != 0 || pre.stats.edges_removed() != 0;
  }
  const Graph& work = remap ? pre.pruned : g;
  const Ordering orientation =
      preprocessed ? std::move(pre.orientation) : DegeneracyOrdering(g);

  const int partitions = std::max(1, options.partitions);
  const RangePartitioner default_policy;
  const GraphPartitioner& policy =
      options.partitioner != nullptr ? *options.partitioner : default_policy;
  const std::vector<int> owner = policy.Assign(work, orientation, partitions);
  std::vector<GraphPartition> parts =
      BuildPartitions(work, orientation, owner, partitions, options.pool);
  const double setup_ms = timer.ElapsedMillis();

  StatusOr<SolveResult> solved = [&]() -> StatusOr<SolveResult> {
    switch (options.method) {
      case Method::kHG:
        return RunHg(work, orientation, parts, options, deadline);
      case Method::kGC:
        return RunGc(work, orientation, parts, owner, options, deadline);
      case Method::kL:
      case Method::kLP:
        return RunLightweight(work, orientation, parts, options, deadline);
      case Method::kOPT:
        break;
    }
    return Status::InvalidArgument("unknown method");
  }();
  if (!solved.ok()) return solved.status();

  solved->stats.init_ms += setup_ms;  // preprocess + partition construction
  if (preprocessed) solved->preprocess = pre.stats;
  solved->partitions.reserve(parts.size());
  for (const GraphPartition& part : parts) {
    solved->partitions.push_back(part.stats);
  }
  if (!remap) return solved;

  // Report in original ids — the monotone-remap replay of the facade.
  SolveResult result(options.k);
  result.stats = solved->stats;
  result.preprocess = solved->preprocess;
  result.partitions = std::move(solved->partitions);
  std::vector<NodeId> mapped(static_cast<size_t>(options.k));
  for (CliqueId c = 0; c < solved->set.size(); ++c) {
    const auto nodes = solved->set.Get(c);
    for (int i = 0; i < options.k; ++i) mapped[i] = pre.new_to_old[nodes[i]];
    result.set.Add(mapped);
  }
  return result;
}

}  // namespace dkc
