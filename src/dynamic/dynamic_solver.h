// DynamicSolver — Section V end-to-end: builds an initial near-optimal
// disjoint k-clique set (any static method), constructs the candidate index
// (Algorithm 5), then maintains the solution under edge insertions
// (Algorithm 6) and deletions (Algorithm 7) via swap operations
// (Algorithm 4).

#ifndef DKC_DYNAMIC_DYNAMIC_SOLVER_H_
#define DKC_DYNAMIC_DYNAMIC_SOLVER_H_

#include <memory>
#include <span>
#include <vector>

#include "core/solver.h"
#include "dynamic/candidate_index.h"
#include "dynamic/solution_view.h"
#include "dynamic/swap.h"
#include "dynamic/workload.h"
#include "util/status.h"

namespace dkc {

struct DynamicOptions {
  int k = 3;
  /// Static method that seeds the initial solution.
  Method initial_method = Method::kLP;
  Budget initial_budget;
  /// Per-update maintenance budget (an ApplyBatch epoch gets it times its
  /// op count): time_ms is a wall-clock deadline (consulted at swap-pop
  /// boundaries), max_branch_nodes a *deterministic* work cap (units: swap
  /// pops + candidate rebuilds + DFS branch nodes entered during rebuild
  /// enumerations). Exhaustion keeps the solution a valid disjoint set —
  /// structural repair (broken-clique replacement, candidate kills) always
  /// runs, and every indexed candidate stays valid; the growth-chasing
  /// swap loop is cut at a pop boundary and an oversized rebuild
  /// enumeration at a DFS branch boundary. But a cut rebuild leaves the
  /// slot's candidate set incomplete until its next rebuild (see
  /// update_work.h), and a later repair or swap that trusts that set can
  /// miss an all-free k-clique: a budgeted run may end *non-maximal*, which
  /// VerifySolution rejects. Both cuts are surfaced through
  /// last_batch_stats(). With a pure work cap the abort outcome is
  /// byte-identical at every thread count. Zero fields = unlimited.
  Budget update_budget;
  /// Worker pool for the initial build only: the static solve, node
  /// scoring and the candidate-index build (Algorithm 5). Every update runs
  /// serially: per-update rebuilds are microsecond-scale, too small to
  /// repay a pool round trip. Solutions and abort outcomes are
  /// byte-identical at any thread count.
  ThreadPool* pool = nullptr;
};

struct DynamicBuildStats {
  double solve_ms = 0.0;  // initial static solve
  double index_ms = 0.0;  // Algorithm 5 over the whole solution (Table VII)
};

/// Per-update slice of a call (see BatchStats::per_update).
struct BatchUpdateStats {
  bool is_insert = false;
  Edge edge{0, 0};
  /// Meter units charged while staging this op (mandatory structural work:
  /// candidate kills, repair packing — rebuilds are charged at the
  /// boundary, not per update).
  uint64_t staged_work = 0;
  /// Dirty slots this op marked *first* (later ops touching the same slot
  /// mark nothing — that sharing is the rebuild dedup).
  uint32_t slots_marked = 0;
  /// Insert materialized a brand-new all-free clique directly.
  bool direct_add = false;
  /// Delete broke a solution clique; the mandatory repair ran.
  bool repaired = false;
};

/// Outcome of the most recent InsertEdge, DeleteEdge or ApplyBatch call
/// (an unbatched update is a call of one op): per-call aggregates (the
/// call shares one deterministic UpdateWork meter, scaled to its op count)
/// plus the per-update breakdown. The Status return carries only argument
/// errors; budget aborts are reported here.
struct BatchStats {
  size_t updates = 0;
  size_t inserts = 0;
  size_t deletes = 0;
  /// Deduped boundary rebuild: dirty slots rebuilt once each,
  /// however many updates in the call touched them. dirty_slots <
  /// slots-marked-summed-over-updates is the measurable dedup win on
  /// bursty neighborhoods.
  size_t dirty_slots = 0;
  uint64_t work = 0;          // whole-call meter total
  uint64_t rebuild_cuts = 0;  // boundary rebuilds the cap truncated
  SwapStats swaps;            // the boundary swap loop
  std::vector<BatchUpdateStats> per_update;

  /// True iff update_budget truncated any of this call's maintenance —
  /// the swap loop at a pop boundary or a rebuild mid-enumeration.
  bool aborted() const { return swaps.aborted || rebuild_cuts > 0; }
};

class DynamicSolver {
 public:
  /// Solve `g` statically, then index it. Fails if the static solve fails.
  static StatusOr<DynamicSolver> Build(const Graph& g,
                                       const DynamicOptions& options);

  /// Seed from a previously computed (e.g. persisted via io/solution_io)
  /// solution instead of re-solving. The seed must be a valid *maximal*
  /// disjoint k-clique set of `g` with the options' k — the maintenance
  /// invariants (Section V's candidate characterization) rely on
  /// maximality. Returns InvalidArgument/Corruption for malformed seeds.
  static StatusOr<DynamicSolver> BuildFromSolution(
      const Graph& g, const CliqueStore& solution,
      const DynamicOptions& options);

  /// Wrap a restored engine state (store/snapshot.h) without re-solving or
  /// re-indexing: the state already carries the solution *and* the exact
  /// candidate index, so the solver continues byte-identically to the one
  /// the state was serialized from. Lifetime stats restart at zero.
  /// InvalidArgument if options.k disagrees with the state's k.
  static StatusOr<DynamicSolver> FromState(
      std::unique_ptr<SolutionState> state, const DynamicOptions& options);

  /// The engine state (exposed for the durable store's snapshot writer).
  const SolutionState& state() const { return *state_; }

  /// Algorithm 6: ApplyBatch's driver on the one op, without its epoch
  /// bump, batch counters or publish. Returns InvalidArgument if the edge
  /// already exists or u == v. New node ids grow the graph.
  Status InsertEdge(NodeId u, NodeId v);

  /// Algorithm 7, as InsertEdge. Returns NotFound if the edge does not
  /// exist.
  Status DeleteEdge(NodeId u, NodeId v);

  /// Epoch-batched apply — the high-throughput ingestion path. Validates
  /// the whole batch up front (ValidateBatch) and rejects it atomically,
  /// state untouched, if any op is invalid. Otherwise every op's
  /// *mandatory* structural effect is applied in stream order (graph
  /// mutation, candidate kills through deleted edges, broken-clique
  /// repair, direct adds of brand-new all-free cliques), while candidate
  /// rebuilds are only *marked*; at the boundary each dirty slot is
  /// rebuilt exactly once, in first-mark order — the dedup win on bursty
  /// streams — followed by one swap loop. InsertEdge/DeleteEdge run this
  /// same driver on one op; ApplyBatch adds the epoch bump and an atomic
  /// SolutionView publish.
  ///
  /// Determinism contract: batch boundaries are part of the stream. The
  /// epoch shares one UpdateWork meter whose deterministic cap scales to
  /// the batch (update_budget.max_branch_nodes × ops.size()) with the
  /// same schedule-independent abort boundaries, so for a fixed stream
  /// *and fixed batching* the outcome is byte-identical at any thread
  /// count, and a batch of one leaves the same state as the corresponding
  /// InsertEdge/DeleteEdge. An empty batch is a no-op (no epoch, no
  /// publish).
  Status ApplyBatch(std::span<const UpdateOp> ops);

  /// The batch-level precondition check ApplyBatch runs: each op must be
  /// valid on the graph as left by the ops before it (self loops,
  /// duplicate inserts, deletes of absent edges — including intra-batch
  /// duplicates and conflicts). Exposed so the durable store can validate
  /// before logging. Errors name the offending op index.
  Status ValidateBatch(std::span<const UpdateOp> ops) const;

  /// Stats of the most recent InsertEdge/DeleteEdge/ApplyBatch call (reset
  /// to empty by an errored call — no stale per-update entries survive a
  /// rejected one).
  const BatchStats& last_batch_stats() const { return last_batch_; }
  /// Lifetime batched-ingestion counters: epochs applied, updates applied
  /// through them, and deduped dirty-slot rebuilds at their boundaries
  /// (batch_dirty_rebuilds < batched_updates_applied on bursty streams is
  /// the dedup headline).
  uint64_t batches_applied() const { return batches_applied_; }
  uint64_t batched_updates_applied() const { return batched_updates_; }
  uint64_t batch_dirty_rebuilds() const { return batch_dirty_rebuilds_; }

  /// Epochs published (0 until the first ApplyBatch; Build publishes the
  /// initial solution as epoch 0).
  uint64_t epoch() const { return epoch_; }
  /// The last published read snapshot — lock-free for readers; never
  /// blocks on (and is never torn by) a concurrent ApplyBatch. See
  /// solution_view.h.
  std::shared_ptr<const SolutionView> published_view() const {
    return publisher_->Current();
  }
  /// Re-publish the current state under the current epoch. InsertEdge and
  /// DeleteEdge never publish; callers mixing them with concurrent readers
  /// publish at their own boundaries.
  void PublishView();

  NodeId solution_size() const { return state_->solution_size(); }
  Count index_size() const { return state_->num_alive_candidates(); }
  const DynamicBuildStats& build_stats() const { return build_stats_; }
  const SwapStats& lifetime_swap_stats() const { return swap_stats_; }

  /// Lifetime count of calls (an unbatched update or an epoch) whose
  /// maintenance the budget truncated.
  uint64_t aborted_updates() const { return aborted_updates_; }
  /// Entries (alive + stale) across the index's per-node candidate lists;
  /// bounded by compaction (see SolutionState::node_cand_ref_count).
  size_t node_cand_ref_count() const {
    return state_->node_cand_ref_count();
  }

  /// Copy of the current solution, e.g. for verification.
  CliqueStore Snapshot() const { return state_->Snapshot(); }
  const DynamicGraph& graph() const { return state_->graph(); }
  int64_t MemoryBytes() const { return state_->MemoryBytes(); }

  /// Invariant check for tests.
  bool CheckInvariants(std::string* error) const {
    return state_->CheckInvariants(error);
  }

  /// Index-vs-fresh-enumeration completeness check for tests (expensive;
  /// see SolutionState::CheckCandidateCompleteness).
  bool CheckCandidateCompleteness(std::string* error) const {
    return state_->CheckCandidateCompleteness(error);
  }

 private:
  DynamicSolver(std::unique_ptr<SolutionState> state, DynamicBuildStats stats,
                const DynamicOptions& options)
      : state_(std::move(state)),
        build_stats_(stats),
        update_budget_(options.update_budget),
        publisher_(std::make_unique<SolutionPublisher>()) {
    PublishView();  // readers always have a view, epoch 0 = the build
  }

  // Finds one k-clique containing both u and v with every node free;
  // fills `clique` and returns true if found (Algorithm 6, lines 7-9).
  bool FindFreeCliqueWithEdge(NodeId u, NodeId v, std::vector<NodeId>* clique);

  // The owners of would-be candidate cliques through the new edge (u,v) —
  // the exact Algorithm-6 lines 12-15 enumeration (both endpoints free, no
  // all-free clique found), sorted, deduped, dead slots dropped. Uncharged:
  // the boundary rebuilds it marks carry the meter.
  std::vector<uint32_t> CollectOwnersOfNewCandidates(NodeId u, NodeId v) const;

  // The update driver behind InsertEdge, DeleteEdge and ApplyBatch:
  // validate, stage every op, rebuild the dirty slots once, run one swap
  // loop, record last_batch_ and the lifetime counters. No epoch, no
  // publish.
  Status Drive(std::span<const UpdateOp> ops);

  // Dirty-slot bookkeeping of one Drive call. A slot accumulates the union
  // of the reasons its ops touched it; at the boundary it is rebuilt once
  // and enqueued for swapping iff any recorded reason fires:
  //   * want_any: iff the rebuilt slot has any candidate (the rule of
  //     CommitReplacement and of the both-free insert's owner rebuilds);
  //   * probes:   iff some rebuilt candidate contains a probed edge (the
  //     one-endpoint-free insert: did the new edge create a candidate?);
  //   * neither ("rebuild only"): never (the direct-add insert — its
  //     candidates all contain the new edge, so no two are disjoint).
  // Marks are kept in first-mark order; a slot that dies during staging is
  // deactivated so a reused slot index never inherits a dead clique's
  // marks. The buffers live across calls: marking allocates nothing in
  // steady state and costs O(1), not O(slot id).
  class DirtySet {
   public:
    struct Mark {
      uint32_t slot = 0;
      bool active = false;
      bool want_any = false;
      std::vector<Edge> probes;
    };

    // Each returns true iff this created the slot's first live mark (the
    // per-update slots_marked accounting; repeats are the dedup win).
    bool MarkRebuild(uint32_t slot) { return Touch(slot).second; }
    bool MarkWantAny(uint32_t slot) {
      const auto [mark, fresh] = Touch(slot);
      mark->want_any = true;
      return fresh;
    }
    bool MarkProbe(uint32_t slot, Edge edge) {
      const auto [mark, fresh] = Touch(slot);
      mark->probes.push_back(edge);
      return fresh;
    }
    // True iff some earlier op of this call deferred a rebuild it still
    // owes the slot.
    bool IsActive(uint32_t slot) const {
      return slot < index_.size() && index_[slot] != kUnmarked;
    }
    // The slot died during staging; a later mark re-enters at the end.
    void Deactivate(uint32_t slot) {
      if (!IsActive(slot)) return;
      marks_[index_[slot]].active = false;
      index_[slot] = kUnmarked;
    }
    // This call's marks in first-mark order; skip the inactive ones.
    std::span<const Mark> marks() const { return {marks_.data(), used_}; }
    void Clear() {
      for (size_t i = 0; i < used_; ++i) index_[marks_[i].slot] = kUnmarked;
      used_ = 0;
    }

   private:
    static constexpr uint32_t kUnmarked = UINT32_MAX;
    std::pair<Mark*, bool> Touch(uint32_t slot);

    std::vector<uint32_t> index_;  // slot -> position in marks_
    std::vector<Mark> marks_;      // [0, used_) belong to the current call
    size_t used_ = 0;
  };

  std::unique_ptr<SolutionState> state_;  // stable address for internals
  DynamicBuildStats build_stats_;
  Budget update_budget_;
  // unique_ptr keeps the publisher's address stable across solver moves —
  // readers hold the publisher, not the solver.
  std::unique_ptr<SolutionPublisher> publisher_;
  SwapStats swap_stats_;
  BatchStats last_batch_;
  // Drive's scratch, reused so a one-op call allocates none of it.
  DirtySet dirty_;
  SwapQueue queue_;
  uint64_t aborted_updates_ = 0;
  uint64_t updates_applied_ = 0;
  uint64_t epoch_ = 0;
  uint64_t batches_applied_ = 0;
  uint64_t batched_updates_ = 0;
  uint64_t batch_dirty_rebuilds_ = 0;
};

}  // namespace dkc

#endif  // DKC_DYNAMIC_DYNAMIC_SOLVER_H_
