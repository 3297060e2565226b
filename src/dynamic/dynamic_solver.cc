#include "dynamic/dynamic_solver.h"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "clique/kclique.h"
#include "core/verify.h"
#include "graph/dag.h"
#include "graph/ordering.h"
#include "util/timer.h"

namespace dkc {
namespace {

void Accumulate(SwapStats* into, const SwapStats& delta) {
  into->pops += delta.pops;
  into->commits += delta.commits;
  into->cliques_gained += delta.cliques_gained;
  into->aborted |= delta.aborted;
}

// Shared tail of both Build paths: node scores, state seeding, index build.
// Returns the state plus the index-build time in ms (Table VII's quantity).
std::pair<std::unique_ptr<SolutionState>, double> SeedState(
    const Graph& g, const CliqueStore& solution,
    const DynamicOptions& options) {
  Timer timer;
  std::vector<Count> node_scores;
  {
    Dag dag(g, DegeneracyOrdering(g));
    node_scores = ComputeNodeScores(dag, options.k, options.pool).per_node;
  }
  auto state = std::make_unique<SolutionState>(DynamicGraph(g), options.k,
                                               std::move(node_scores));
  for (CliqueId c = 0; c < solution.size(); ++c) {
    state->AddSolutionClique(solution.Get(c));
  }
  state->RebuildAllCandidates(options.pool);  // Algorithm 5
  return {std::move(state), timer.ElapsedMillis()};
}

}  // namespace

StatusOr<DynamicSolver> DynamicSolver::Build(const Graph& g,
                                             const DynamicOptions& options) {
  Timer timer;
  SolverOptions solver_options;
  solver_options.k = options.k;
  solver_options.method = options.initial_method;
  solver_options.budget = options.initial_budget;
  solver_options.pool = options.pool;
  auto initial = Solve(g, solver_options);
  if (!initial.ok()) return initial.status();
  DynamicBuildStats stats;
  stats.solve_ms = timer.ElapsedMillis();

  auto [state, index_ms] = SeedState(g, initial->set, options);
  stats.index_ms = index_ms;
  return DynamicSolver(std::move(state), stats, options);
}

StatusOr<DynamicSolver> DynamicSolver::BuildFromSolution(
    const Graph& g, const CliqueStore& solution,
    const DynamicOptions& options) {
  if (solution.k() != options.k) {
    return Status::InvalidArgument("solution k does not match options.k");
  }
  DKC_RETURN_IF_ERROR(VerifyDisjointCliques(g, solution));
  // Maximality is load-bearing: the candidate characterization (non-free
  // nodes of a candidate live in exactly one clique of S) presumes no
  // all-free k-clique exists.
  DKC_RETURN_IF_ERROR(VerifyMaximality(g, solution));

  DynamicBuildStats stats;
  auto [state, index_ms] = SeedState(g, solution, options);
  stats.index_ms = index_ms;
  return DynamicSolver(std::move(state), stats, options);
}

StatusOr<DynamicSolver> DynamicSolver::FromState(
    std::unique_ptr<SolutionState> state, const DynamicOptions& options) {
  if (state == nullptr) {
    return Status::InvalidArgument("null engine state");
  }
  if (state->k() != options.k) {
    return Status::InvalidArgument("state k does not match options.k");
  }
  return DynamicSolver(std::move(state), DynamicBuildStats{}, options);
}

bool DynamicSolver::FindFreeCliqueWithEdge(NodeId u, NodeId v,
                                           std::vector<NodeId>* clique) {
  const int k = state_->k();
  const DynamicGraph& graph = state_->graph();
  // Free common neighbors of the new edge's endpoints.
  std::vector<NodeId> common;
  for (NodeId w : graph.Neighbors(u)) {
    if (w != v && state_->IsFree(w) && graph.HasEdge(w, v)) {
      common.push_back(w);
    }
  }
  if (common.size() + 2 < static_cast<size_t>(k)) return false;

  std::vector<NodeId> chosen;
  std::function<bool(size_t, int)> extend = [&](size_t start,
                                                int remaining) -> bool {
    if (remaining == 0) return true;
    for (size_t i = start; i < common.size(); ++i) {
      const NodeId w = common[i];
      bool adjacent_to_all = true;
      for (NodeId x : chosen) {
        if (!graph.HasEdge(w, x)) {
          adjacent_to_all = false;
          break;
        }
      }
      if (!adjacent_to_all) continue;
      chosen.push_back(w);
      if (extend(i + 1, remaining - 1)) return true;
      chosen.pop_back();
    }
    return false;
  };
  if (!extend(0, k - 2)) return false;
  clique->clear();
  clique->push_back(u);
  clique->push_back(v);
  clique->insert(clique->end(), chosen.begin(), chosen.end());
  return true;
}

std::vector<uint32_t> DynamicSolver::CollectOwnersOfNewCandidates(
    NodeId u, NodeId v) const {
  const int k = state_->k();
  const DynamicGraph& graph = state_->graph();
  std::vector<uint32_t> owners;
  std::vector<NodeId> common;
  for (NodeId w : graph.Neighbors(u)) {
    if (w != v && graph.HasEdge(w, v)) common.push_back(w);
  }
  if (common.size() + 2 < static_cast<size_t>(k)) return owners;

  // Enumerate k-cliques through (u,v) whose non-free nodes all belong to
  // one solution clique — those are exactly the candidates the new edge
  // creates (u and v are free here). We only need the set of owners.
  std::vector<NodeId> chosen;
  std::function<void(size_t, int, uint32_t)> extend =
      [&](size_t start, int remaining, uint32_t owner) {
        if (remaining == 0) {
          if (owner != SolutionState::kNoClique) owners.push_back(owner);
          return;
        }
        for (size_t i = start; i < common.size(); ++i) {
          const NodeId w = common[i];
          uint32_t next_owner = owner;
          const uint32_t cw = state_->CliqueOf(w);
          if (cw != SolutionState::kNoClique) {
            if (owner != SolutionState::kNoClique && cw != owner) continue;
            next_owner = cw;
          }
          bool adjacent_to_all = true;
          for (NodeId x : chosen) {
            if (!graph.HasEdge(w, x)) {
              adjacent_to_all = false;
              break;
            }
          }
          if (!adjacent_to_all) continue;
          chosen.push_back(w);
          extend(i + 1, remaining - 1, next_owner);
          chosen.pop_back();
        }
      };
  extend(0, k - 2, SolutionState::kNoClique);

  std::sort(owners.begin(), owners.end());
  owners.erase(std::unique(owners.begin(), owners.end()), owners.end());
  owners.erase(std::remove_if(owners.begin(), owners.end(),
                              [this](uint32_t owner) {
                                return !state_->SlotAlive(owner);
                              }),
               owners.end());
  return owners;
}

void DynamicSolver::EnqueueOwnersOfNewCandidates(NodeId u, NodeId v,
                                                 SwapQueue* queue,
                                                 UpdateWork* meter) {
  const std::vector<uint32_t> owners = CollectOwnersOfNewCandidates(u, v);
  // The rebuilds register the new edge's candidates as a side effect and
  // charge `meter` themselves (possibly truncated by its cap).
  for (const uint32_t owner : owners) {
    if (state_->RebuildCandidatesFor(owner, meter) > 0) {
      queue->push_back(state_->RefOf(owner));
    }
  }
}

void DynamicSolver::FinishUpdate(const UpdateWork& meter,
                                 const SwapStats& swaps) {
  last_update_.work = meter.work;
  last_update_.rebuild_cuts = meter.rebuild_cuts;
  last_update_.swaps = swaps;
  aborted_updates_ += last_update_.aborted() ? 1 : 0;
  Accumulate(&swap_stats_, swaps);
}

Status DynamicSolver::InsertEdge(NodeId u, NodeId v) {
  last_update_ = UpdateStats{};  // an errored call did no work
  if (!state_->graph().InsertEdge(u, v)) {
    return Status::InvalidArgument("edge already present (or u == v)");
  }
  ++updates_applied_;
  state_->EnsureNodeCapacity(state_->graph().num_nodes());
  UpdateWork meter = UpdateWork::FromBudget(update_budget_);

  const uint32_t cu = state_->CliqueOf(u);
  const uint32_t cv = state_->CliqueOf(v);
  if (cu != SolutionState::kNoClique && cv != SolutionState::kNoClique) {
    // Neither endpoint free: no candidate can use the edge (a candidate's
    // non-free nodes come from one clique, and (u,v) inside one clique is
    // impossible for a *new* edge). Nothing to do — Algorithm 6's silent
    // case.
    FinishUpdate(meter, SwapStats{});
    return Status::OK();
  }

  SwapQueue queue;
  SwapStats swaps;
  if (cu != SolutionState::kNoClique || cv != SolutionState::kNoClique) {
    // Exactly one endpoint free (lines 1-6): candidates through (u,v) can
    // only belong to the non-free endpoint's clique. The rebuild itself
    // reports whether the edge actually created a candidate there.
    const uint32_t owner = cu != SolutionState::kNoClique ? cu : cv;
    const auto rebuilt = state_->RebuildCandidatesFor(owner, u, v, &meter);
    if (rebuilt.has_edge) {
      queue.push_back(state_->RefOf(owner));
      swaps = TrySwapLoop(state_.get(), &queue, &meter);
    }
    FinishUpdate(meter, swaps);
    return Status::OK();
  }

  // Both endpoints free (lines 7-15).
  std::vector<NodeId> clique;
  if (FindFreeCliqueWithEdge(u, v, &clique)) {
    // A brand-new all-free clique: add directly. AddSolutionClique kills
    // every candidate (of any owner) that used the consumed nodes as free
    // nodes — without that kill, a later DeleteEdge could pack a stale
    // candidate into the solution and break disjointness (pinned by the
    // StaleCandidate regression tests). No swapping is needed: every
    // candidate of the new clique contains both u and v (any other
    // combination was an all-free clique of the *pre-insert* graph,
    // contradicting maximality), so no two of them are disjoint.
    const uint32_t slot = state_->AddSolutionClique(clique);
    state_->RebuildCandidatesFor(slot, &meter);
    FinishUpdate(meter, SwapStats{});
    return Status::OK();
  }
  EnqueueOwnersOfNewCandidates(u, v, &queue, &meter);
  if (!queue.empty()) {
    swaps = TrySwapLoop(state_.get(), &queue, &meter);
  }
  FinishUpdate(meter, swaps);
  return Status::OK();
}

Status DynamicSolver::DeleteEdge(NodeId u, NodeId v) {
  last_update_ = UpdateStats{};  // an errored call did no work
  if (!state_->graph().DeleteEdge(u, v)) {
    return Status::NotFound("edge does not exist");
  }
  ++updates_applied_;
  UpdateWork meter = UpdateWork::FromBudget(update_budget_);
  // Candidates through the edge are no longer cliques.
  state_->KillCandidatesWithEdge(u, v);
  meter.Charge(1);

  const uint32_t cu = state_->CliqueOf(u);
  const uint32_t cv = state_->CliqueOf(v);
  if (cu == SolutionState::kNoClique || cu != cv) {
    FinishUpdate(meter, SwapStats{});
    return Status::OK();  // lines 5-6: only candidates were affected
  }

  // Lines 1-4: the edge broke solution clique C. Replace it by the best
  // disjoint packing of its surviving candidates (possibly empty), then let
  // the swap loop chase follow-on opportunities. The repair itself is
  // mandatory and runs to completion whatever the budget says; only the
  // follow-on loop can be cut short.
  auto replacement = PackDisjointCandidates(*state_, cu);
  SwapQueue queue;
  CommitReplacement(state_.get(), cu, replacement, &queue, &meter);
  const SwapStats swaps = TrySwapLoop(state_.get(), &queue, &meter);
  FinishUpdate(meter, swaps);
  return Status::OK();
}

namespace {

// Canonical 64-bit key of an undirected pair, for the batch validator's
// simulated edge delta.
uint64_t EdgeKey(NodeId u, NodeId v) {
  const NodeId lo = std::min(u, v);
  const NodeId hi = std::max(u, v);
  return (static_cast<uint64_t>(lo) << 32) | hi;
}

// Per-epoch dirty-slot bookkeeping for ApplyBatch. A slot accumulates the
// union of the reasons updates touched it; at the boundary it is rebuilt
// once and enqueued for swapping iff any recorded reason fires — exactly
// the enqueue rule the corresponding serial update path would have used:
//
//   * want_any: enqueue iff the rebuilt slot has any candidate (the rule
//     of CommitReplacement and of the both-free insert's owner rebuilds);
//   * probes:   enqueue iff some rebuilt candidate contains the probed
//     edge (the has_edge rule of the one-endpoint-free insert);
//   * neither ("rebuild only"): never enqueue (the direct-add insert —
//     its candidates are pairwise intersecting, so no swap can gain).
//
// Marks are kept in first-mark order, which for a batch of one reproduces
// the serial rebuild order verbatim; a slot that dies during staging is
// deactivated so a reused slot index never inherits a dead clique's marks.
class DirtySet {
 public:
  struct Mark {
    bool active = false;
    bool want_any = false;
    std::vector<Edge> probes;
    size_t order = 0;  // position in order_ of the first (live) mark
  };

  /// Each returns true iff this created the slot's first live mark (the
  /// per-update slots_marked accounting; repeats are the dedup win).
  bool MarkRebuild(uint32_t slot) {
    bool fresh = false;
    Touch(slot, &fresh);
    return fresh;
  }
  bool MarkWantAny(uint32_t slot) {
    bool fresh = false;
    Touch(slot, &fresh).want_any = true;
    return fresh;
  }
  bool MarkProbe(uint32_t slot, Edge edge) {
    bool fresh = false;
    Touch(slot, &fresh).probes.push_back(edge);
    return fresh;
  }

  /// The slot died during staging (its clique was removed); drop its
  /// marks so a reused slot index starts clean.
  void Deactivate(uint32_t slot) {
    if (slot < marks_.size()) marks_[slot].active = false;
  }

  /// True iff the slot currently carries a live mark — i.e. some earlier
  /// op of this epoch deferred a rebuild it still owes the slot.
  bool IsActive(uint32_t slot) const {
    return slot < marks_.size() && marks_[slot].active;
  }

  /// Visit live marks in first-mark order (re-marks after a death re-enter
  /// at their new position).
  template <typename F>
  void ForEachActive(F&& f) const {
    for (size_t i = 0; i < order_.size(); ++i) {
      const uint32_t slot = order_[i];
      const Mark& mark = marks_[slot];
      if (mark.active && mark.order == i) f(slot, mark);
    }
  }

 private:
  Mark& Touch(uint32_t slot, bool* fresh) {
    if (slot >= marks_.size()) marks_.resize(slot + 1);
    Mark& mark = marks_[slot];
    *fresh = !mark.active;
    if (!mark.active) {
      mark = Mark{};  // wipe whatever a dead former occupant left behind
      mark.active = true;
      mark.order = order_.size();
      order_.push_back(slot);
    }
    return mark;
  }

  std::vector<Mark> marks_;
  std::vector<uint32_t> order_;
};

}  // namespace

Status DynamicSolver::ValidateBatch(std::span<const UpdateOp> ops) const {
  // Simulated edge delta over the live graph: op i must be valid on the
  // graph as left by ops 0..i-1 (catches intra-batch duplicates and
  // self-canceling pairs as well as conflicts with the current graph).
  std::unordered_map<uint64_t, bool> delta;
  for (size_t i = 0; i < ops.size(); ++i) {
    const auto [u, v] = ops[i].edge;
    if (u == v) {
      return Status::InvalidArgument("batch op " + std::to_string(i) +
                                     ": self loop");
    }
    const uint64_t key = EdgeKey(u, v);
    const auto it = delta.find(key);
    const bool present =
        it != delta.end() ? it->second : state_->graph().HasEdge(u, v);
    if (ops[i].is_insert) {
      if (present) {
        return Status::InvalidArgument("batch op " + std::to_string(i) +
                                       ": edge already present");
      }
      delta[key] = true;
    } else {
      if (!present) {
        return Status::NotFound("batch op " + std::to_string(i) +
                                ": edge does not exist");
      }
      delta[key] = false;
    }
  }
  return Status::OK();
}

Status DynamicSolver::ApplyBatch(std::span<const UpdateOp> ops) {
  last_batch_ = BatchStats{};
  last_update_ = UpdateStats{};  // a rejected batch did no work
  DKC_RETURN_IF_ERROR(ValidateBatch(ops));
  if (ops.empty()) return Status::OK();  // no epoch, no publish

  // One meter for the whole epoch: the deterministic cap scales with the
  // batch so a stream batched differently gets proportional maintenance,
  // while the abort boundaries (swap pops, rebuild DFS branches) stay
  // schedule-independent.
  Budget epoch_budget = update_budget_;
  if (epoch_budget.max_branch_nodes > 0) {
    const uint64_t cap = epoch_budget.max_branch_nodes;
    epoch_budget.max_branch_nodes =
        cap > UINT64_MAX / ops.size() ? UINT64_MAX : cap * ops.size();
  }
  UpdateWork meter = UpdateWork::FromBudget(epoch_budget);

  // --- staging: mandatory structural work per op, rebuilds deferred ----
  DirtySet dirty;
  last_batch_.per_update.reserve(ops.size());
  for (const UpdateOp& op : ops) {
    BatchUpdateStats ustat;
    ustat.is_insert = op.is_insert;
    ustat.edge = op.edge;
    const uint64_t work_before = meter.work;
    const auto [u, v] = op.edge;
    if (op.is_insert) {
      ++last_batch_.inserts;
      const bool inserted = state_->graph().InsertEdge(u, v);
      (void)inserted;  // ValidateBatch guarantees it
      state_->EnsureNodeCapacity(state_->graph().num_nodes());
      const uint32_t cu = state_->CliqueOf(u);
      const uint32_t cv = state_->CliqueOf(v);
      if (cu != SolutionState::kNoClique && cv != SolutionState::kNoClique) {
        // Algorithm 6's silent case — no candidate can use the edge.
      } else if (cu != SolutionState::kNoClique ||
                 cv != SolutionState::kNoClique) {
        // One endpoint free: only the non-free endpoint's clique can own
        // candidates through (u,v). Whether it gained one is answered by
        // the boundary rebuild (the probe).
        const uint32_t owner = cu != SolutionState::kNoClique ? cu : cv;
        ustat.slots_marked += dirty.MarkProbe(owner, op.edge) ? 1 : 0;
      } else {
        std::vector<NodeId> clique;
        if (FindFreeCliqueWithEdge(u, v, &clique)) {
          // Brand-new all-free clique: add directly (see InsertEdge for
          // why no swap can follow), rebuild its candidates at the
          // boundary.
          const uint32_t slot = state_->AddSolutionClique(clique);
          ustat.direct_add = true;
          ustat.slots_marked += dirty.MarkRebuild(slot) ? 1 : 0;
        } else {
          for (const uint32_t owner : CollectOwnersOfNewCandidates(u, v)) {
            ustat.slots_marked += dirty.MarkWantAny(owner) ? 1 : 0;
          }
        }
      }
    } else {
      ++last_batch_.deletes;
      const bool deleted = state_->graph().DeleteEdge(u, v);
      (void)deleted;  // ValidateBatch guarantees it
      state_->KillCandidatesWithEdge(u, v);
      meter.Charge(1);
      const uint32_t cu = state_->CliqueOf(u);
      const uint32_t cv = state_->CliqueOf(v);
      if (cu != SolutionState::kNoClique && cu == cv) {
        // The edge broke solution clique C: mandatory repair, batched or
        // not. The replacement's rebuilds join the epoch's dirty set.
        ustat.repaired = true;
        if (dirty.IsActive(cu)) {
          // Earlier ops of this epoch deferred C's rebuild, so its indexed
          // candidate set is stale — missing k-cliques the epoch's inserts
          // created through C. The repair packs exactly that set, and the
          // maximality invariant rests on the packing being maximal over
          // C's *complete* candidates (a missed one goes all-free once C
          // dies and nothing ever materializes it). Settle the owed
          // rebuild now; a batch of one can never mark the slot it
          // repairs, so the unbatched equivalence is untouched.
          state_->RebuildCandidatesFor(cu, &meter);
        }
        dirty.Deactivate(cu);
        const auto replacement = PackDisjointCandidates(*state_, cu);
        for (const uint32_t slot :
             StageReplacement(state_.get(), cu, replacement)) {
          ustat.slots_marked += dirty.MarkWantAny(slot) ? 1 : 0;
        }
      }
    }
    ustat.staged_work = meter.work - work_before;
    last_batch_.per_update.push_back(ustat);
  }

  // --- boundary: one deduped rebuild pass, one swap loop --------------
  SwapQueue queue;
  size_t dirty_slots = 0;
  dirty.ForEachActive([&](uint32_t slot, const DirtySet::Mark& mark) {
    ++dirty_slots;
    const size_t count = state_->RebuildCandidatesFor(slot, &meter);
    bool enqueue = mark.want_any && count > 0;
    if (!enqueue && count > 0 && !mark.probes.empty()) {
      for (const auto& cand : state_->CandidatesOf(slot)) {
        for (const auto& [pu, pv] : mark.probes) {
          const auto& nodes = cand.nodes;
          if (std::find(nodes.begin(), nodes.end(), pu) != nodes.end() &&
              std::find(nodes.begin(), nodes.end(), pv) != nodes.end()) {
            enqueue = true;
            break;
          }
        }
        if (enqueue) break;
      }
    }
    if (enqueue) queue.push_back(state_->RefOf(slot));
  });
  const SwapStats swaps = TrySwapLoop(state_.get(), &queue, &meter);

  // --- finalize: stats, counters, publish ------------------------------
  last_batch_.updates = ops.size();
  last_batch_.dirty_slots = dirty_slots;
  last_batch_.work = meter.work;
  last_batch_.rebuild_cuts = meter.rebuild_cuts;
  last_batch_.swaps = swaps;
  updates_applied_ += ops.size();
  ++epoch_;
  ++batches_applied_;
  batched_updates_ += ops.size();
  batch_dirty_rebuilds_ += dirty_slots;
  FinishUpdate(meter, swaps);  // the epoch aggregate, one epoch = one entry
  PublishView();
  return Status::OK();
}

void DynamicSolver::PublishView() {
  publisher_->Publish(BuildSolutionView(*state_, epoch_, updates_applied_));
}

}  // namespace dkc
