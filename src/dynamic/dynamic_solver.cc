#include "dynamic/dynamic_solver.h"

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <utility>

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

Status DynamicSolver::InsertEdge(NodeId u, NodeId v) {
  const UpdateOp op{true, {u, v}};
  return Drive({&op, 1});
}

Status DynamicSolver::DeleteEdge(NodeId u, NodeId v) {
  const UpdateOp op{false, {u, v}};
  return Drive({&op, 1});
}

Status DynamicSolver::ApplyBatch(std::span<const UpdateOp> ops) {
  DKC_RETURN_IF_ERROR(Drive(ops));
  if (ops.empty()) return Status::OK();  // no epoch, no publish
  ++epoch_;
  ++batches_applied_;
  batched_updates_ += ops.size();
  batch_dirty_rebuilds_ += last_batch_.dirty_slots;
  PublishView();
  return Status::OK();
}

std::pair<DynamicSolver::DirtySet::Mark*, bool> DynamicSolver::DirtySet::Touch(
    uint32_t slot) {
  if (slot >= index_.size()) {
    index_.resize(std::max<size_t>(slot + 1, 2 * index_.size()), kUnmarked);
  }
  const bool fresh = index_[slot] == kUnmarked;
  if (fresh) {
    if (used_ == marks_.size()) marks_.emplace_back();
    Mark& mark = marks_[used_];
    mark.slot = slot;
    mark.active = true;
    mark.want_any = false;
    mark.probes.clear();
    index_[slot] = static_cast<uint32_t>(used_++);
  }
  return {&marks_[index_[slot]], fresh};
}

Status DynamicSolver::ValidateBatch(std::span<const UpdateOp> ops) const {
  // Op i must be valid on the graph as left by ops 0..i-1. A simulated
  // edge delta over the live graph carries their effect (intra-batch
  // duplicates, self-canceling pairs); a one-op call builds none.
  const auto check = [&](size_t i, const bool* simulated) -> Status {
    const auto [u, v] = ops[i].edge;
    if (u == v) {
      return Status::InvalidArgument("batch op " + std::to_string(i) +
                                     ": self loop");
    }
    const bool present =
        simulated != nullptr ? *simulated : state_->graph().HasEdge(u, v);
    if (ops[i].is_insert && present) {
      return Status::InvalidArgument("batch op " + std::to_string(i) +
                                     ": edge already present");
    }
    if (!ops[i].is_insert && !present) {
      return Status::NotFound("batch op " + std::to_string(i) +
                              ": edge does not exist");
    }
    return Status::OK();
  };
  if (ops.size() == 1) return check(0, nullptr);
  std::unordered_map<uint64_t, bool> delta;
  for (size_t i = 0; i < ops.size(); ++i) {
    const auto [u, v] = ops[i].edge;
    const uint64_t key = (static_cast<uint64_t>(std::min(u, v)) << 32) |
                         std::max(u, v);
    const auto it = delta.find(key);
    DKC_RETURN_IF_ERROR(check(i, it != delta.end() ? &it->second : nullptr));
    delta[key] = ops[i].is_insert;
  }
  return Status::OK();
}

Status DynamicSolver::Drive(std::span<const UpdateOp> ops) {
  // Reset, keeping per_update's buffer: an errored call did no work.
  auto per_update = std::move(last_batch_.per_update);
  per_update.clear();
  last_batch_ = BatchStats{};
  last_batch_.per_update = std::move(per_update);
  DKC_RETURN_IF_ERROR(ValidateBatch(ops));
  if (ops.empty()) return Status::OK();

  // One meter for the whole call: the deterministic cap scales with the
  // op count so a stream batched differently gets proportional
  // maintenance, while the abort boundaries (swap pops, rebuild DFS
  // branches) stay schedule-independent.
  Budget budget = update_budget_;
  if (budget.max_branch_nodes > 0) {
    const uint64_t cap = budget.max_branch_nodes;
    budget.max_branch_nodes =
        cap > UINT64_MAX / ops.size() ? UINT64_MAX : cap * ops.size();
  }
  UpdateWork meter = UpdateWork::FromBudget(budget);

  // --- staging: mandatory structural work per op, rebuilds deferred ----
  dirty_.Clear();
  for (const UpdateOp& op : ops) {
    BatchUpdateStats ustat;
    ustat.is_insert = op.is_insert;
    ustat.edge = op.edge;
    const uint64_t work_before = meter.work;
    const auto [u, v] = op.edge;
    if (op.is_insert) {
      ++last_batch_.inserts;
      state_->graph().InsertEdge(u, v);  // ValidateBatch guarantees it
      state_->EnsureNodeCapacity(state_->graph().num_nodes());
      const uint32_t cu = state_->CliqueOf(u);
      const uint32_t cv = state_->CliqueOf(v);
      if (cu != SolutionState::kNoClique && cv != SolutionState::kNoClique) {
        // Algorithm 6's silent case: a candidate's non-free nodes come
        // from one clique, and a *new* edge cannot lie inside one.
      } else if (cu != SolutionState::kNoClique ||
                 cv != SolutionState::kNoClique) {
        // One endpoint free (lines 1-6): only the non-free endpoint's
        // clique can own candidates through (u,v). Whether it gained one
        // is answered by the boundary rebuild (the probe).
        const uint32_t owner = cu != SolutionState::kNoClique ? cu : cv;
        ustat.slots_marked += dirty_.MarkProbe(owner, op.edge) ? 1 : 0;
      } else {
        // Both endpoints free (lines 7-15).
        std::vector<NodeId> clique;
        if (FindFreeCliqueWithEdge(u, v, &clique)) {
          // A brand-new all-free clique: add directly. AddSolutionClique
          // kills every candidate (of any owner) that used the consumed
          // nodes as free nodes — without that kill, a later delete could
          // pack a stale candidate into the solution and break
          // disjointness (the StaleCandidate regression tests). No swap
          // can follow: every candidate of the new clique contains both u
          // and v (any other was an all-free clique of the pre-insert
          // graph, contradicting maximality), so no two are disjoint.
          const uint32_t slot = state_->AddSolutionClique(clique);
          ustat.direct_add = true;
          ustat.slots_marked += dirty_.MarkRebuild(slot) ? 1 : 0;
        } else {
          for (const uint32_t owner : CollectOwnersOfNewCandidates(u, v)) {
            ustat.slots_marked += dirty_.MarkWantAny(owner) ? 1 : 0;
          }
        }
      }
    } else {
      ++last_batch_.deletes;
      state_->graph().DeleteEdge(u, v);  // ValidateBatch guarantees it
      // Candidates through the edge are no longer cliques.
      state_->KillCandidatesWithEdge(u, v);
      meter.Charge(1);
      const uint32_t cu = state_->CliqueOf(u);
      const uint32_t cv = state_->CliqueOf(v);
      if (cu != SolutionState::kNoClique && cu == cv) {
        // Lines 1-4: the edge broke solution clique C. Replace it by the
        // best disjoint packing of its surviving candidates (possibly
        // empty); the replacement's rebuilds join the dirty set. The
        // repair is mandatory and runs whatever the budget says.
        ustat.repaired = true;
        if (dirty_.IsActive(cu)) {
          // Earlier ops of this call deferred C's rebuild, so its indexed
          // candidate set is stale — missing k-cliques their inserts
          // created through C. The repair packs exactly that set, and the
          // maximality invariant rests on the packing being maximal over
          // C's *complete* candidates (a missed one goes all-free once C
          // dies and nothing ever materializes it). Settle the owed
          // rebuild now; a one-op call never marks the slot it repairs.
          state_->RebuildCandidatesFor(cu, &meter);
        }
        dirty_.Deactivate(cu);
        const auto replacement = PackDisjointCandidates(*state_, cu);
        for (const uint32_t slot :
             StageReplacement(state_.get(), cu, replacement)) {
          ustat.slots_marked += dirty_.MarkWantAny(slot) ? 1 : 0;
        }
      }
      // Otherwise (lines 5-6) only candidates were affected.
    }
    ustat.staged_work = meter.work - work_before;
    last_batch_.per_update.push_back(ustat);
  }

  // --- boundary: one deduped rebuild pass, one swap loop --------------
  size_t dirty_slots = 0;
  for (const DirtySet::Mark& mark : dirty_.marks()) {
    if (!mark.active) continue;
    ++dirty_slots;
    const auto rebuilt =
        state_->RebuildCandidatesFor(mark.slot, mark.probes, &meter);
    if ((mark.want_any && rebuilt.candidates > 0) || rebuilt.has_edge) {
      queue_.push_back(state_->RefOf(mark.slot));
    }
  }
  const SwapStats swaps = TrySwapLoop(state_.get(), &queue_, &meter);

  // --- stats and lifetime counters -------------------------------------
  last_batch_.updates = ops.size();
  last_batch_.dirty_slots = dirty_slots;
  last_batch_.work = meter.work;
  last_batch_.rebuild_cuts = meter.rebuild_cuts;
  last_batch_.swaps = swaps;
  updates_applied_ += ops.size();
  aborted_updates_ += last_batch_.aborted() ? 1 : 0;
  Accumulate(&swap_stats_, swaps);
  return Status::OK();
}

void DynamicSolver::PublishView() {
  publisher_->Publish(BuildSolutionView(*state_, epoch_, updates_applied_));
}

}  // namespace dkc
