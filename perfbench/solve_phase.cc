// Static solves: Solve() for LP and HG, serial and pooled. Traced, each
// solve is also run as its decomposition (PreprocessForKCliques, then the
// method's solver on the pruned graph with the preserved orientation, then
// the id remap, as core/solver.cc composes them), with side calls into the
// ordering, DAG and scoring layers on the same inputs.

#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "clique/kclique.h"
#include "core/basic_framework.h"
#include "core/lightweight.h"
#include "core/solver.h"
#include "core/verify.h"
#include "graph/dag.h"
#include "graph/ordering.h"
#include "graph/preprocess.h"

namespace dkc::perfbench {
namespace {

struct Variant {
  Method method;
  bool pooled;
  const char* label;  // end-to-end metric name and span name
};

constexpr Variant kVariants[] = {
    {Method::kLP, false, "lp_t1"},
    {Method::kLP, true, "lp_t4"},
    {Method::kHG, false, "hg_t1"},
    {Method::kHG, true, "hg_t4"},
};

// Per-round timings of one traced, decomposed solve.
struct Decomposed {
  std::optional<CliqueStore> set;  // empty when the solver failed
  PreprocessStats stats;
  double total_ms = 0.0;
  double preprocess_ms = 0.0;
  double solver_ms = 0.0;
  double order_ms = 0.0;  // side calls, LP only (order: serial only)
  double dag_ms = 0.0;
  double score_ms = 0.0;
  Count kcliques = 0;
};

Decomposed RunDecomposed(const Graph& g, int k, const Variant& variant,
                         ThreadPool* pool, SpanLog* spans) {
  Decomposed out;
  const uint64_t parent = spans->Begin(variant.label, 0);
  PreprocessOptions pre_options;
  pre_options.k = k;
  pre_options.pool = pool;
  PreprocessResult pre;
  out.preprocess_ms = spans->Time("graph.preprocess", parent, [&] {
    pre = PreprocessForKCliques(g, pre_options);
  });
  const bool pruned =
      pre.stats.nodes_removed() != 0 || pre.stats.edges_removed() != 0;
  const Graph& target = pruned ? pre.pruned : g;
  std::optional<StatusOr<SolveResult>> solved;
  if (variant.method == Method::kLP) {
    LightweightOptions light;
    light.k = k;
    light.orientation = &pre.orientation;
    light.pool = pool;
    out.solver_ms = spans->Time("core.lp", parent, [&] {
      solved.emplace(SolveLightweight(target, light));
    });
  } else {
    BasicOptions basic;
    basic.k = k;
    basic.orientation = &pre.orientation;
    basic.pool = pool;
    out.solver_ms = spans->Time(
        "core.hg", parent, [&] { solved.emplace(SolveBasic(target, basic)); });
  }
  if (solved->ok()) {
    CliqueStore set(k);
    std::vector<NodeId> mapped(static_cast<size_t>(k));
    for (CliqueId c = 0; c < (*solved)->set.size(); ++c) {
      const auto nodes = (*solved)->set.Get(c);
      for (int i = 0; i < k; ++i) {
        mapped[i] = pruned ? pre.new_to_old[nodes[i]] : nodes[i];
      }
      set.Add(mapped);
    }
    out.set = std::move(set);
  }
  out.total_ms = spans->End(parent);
  out.stats = pre.stats;

  // Side calls on the same inputs, outside the parent span: the degeneracy
  // order preprocessing computes, and LP's scoring pass (its counting DAG
  // plus ComputeNodeScores).
  if (variant.method == Method::kLP) {
    if (!variant.pooled) {
      out.order_ms = spans->Time("graph.order", parent,
                                 [&] { (void)DegeneracyOrdering(g); });
    }
    std::optional<Dag> dag;
    out.dag_ms = spans->Time("graph.dag", parent,
                             [&] { dag.emplace(target, pre.orientation); });
    out.score_ms = spans->Time("clique.score", parent, [&] {
      out.kcliques = ComputeNodeScores(*dag, k, pool).total_cliques;
    });
  }
  return out;
}

}  // namespace

SolveBench::SolveBench(const RunConfig& config, ThreadPool* pool,
                       SpanLog* spans, TraceTotals* totals, Report* report)
    : config_(config),
      pool_(pool),
      spans_(spans),
      totals_(totals),
      report_(report),
      reference_(std::size(kVariants)),
      wall_s_(std::size(kVariants)) {}

SolverOptions SolveBench::Options(size_t variant) const {
  SolverOptions options;
  options.k = config_.spec->k;
  options.method = kVariants[variant].method;
  options.pool = kVariants[variant].pooled ? pool_ : nullptr;
  return options;
}

void SolveBench::Warmup(const Graph& g) {
  for (size_t i = 0; i < std::size(kVariants); ++i) {
    const Variant& v = kVariants[i];
    auto solved = Solve(g, Options(i));
    report_->Check(solved.ok(), std::string("warm-up solve ") + v.label);
    if (!solved.ok()) continue;
    if (!v.pooled) {
      const Status verified = VerifySolution(g, solved->set);
      report_->Check(verified.ok(), std::string("VerifySolution ") + v.label +
                                        ": " + verified.ToString());
      reference_[i] = std::move(solved->set);
      reference_[i + 1] = reference_[i];  // the pooled twin must match it
    } else {
      report_->Check(reference_[i].has_value() &&
                         SameCliques(solved->set, *reference_[i]),
                     std::string(v.label) + " differs from the serial solve");
    }
  }
}

bool SolveBench::Matches(size_t variant, const CliqueStore& set) const {
  return reference_[variant].has_value() &&
         SameCliques(set, *reference_[variant]);
}

void SolveBench::Rounds(const Graph& g, double budget_s, int min_rounds) {
  const Clock::time_point start = Clock::now();
  for (int round = 0; round < min_rounds ||
                      MillisBetween(start, Clock::now()) < budget_s * 1e3;
       ++round) {
    ++rounds_;
    for (size_t i = 0; i < std::size(kVariants); ++i) {
      const Variant& v = kVariants[i];
      const Clock::time_point t0 = Clock::now();
      auto solved = Solve(g, Options(i));
      const double ms = MillisBetween(t0, Clock::now());
      wall_s_[i].Add(ms / 1e3);
      report_->Check(solved.ok() && Matches(i, solved->set),
                     std::string("solve ") + v.label + " round " +
                         std::to_string(rounds_) +
                         " differs from the warm-up solve");
      if (!spans_->enabled()) continue;

      const Decomposed d = RunDecomposed(g, config_.spec->k, v,
                                         v.pooled ? pool_ : nullptr, spans_);
      report_->Check(d.set.has_value() && Matches(i, *d.set),
                     std::string("decomposed ") + v.label +
                         " differs from Solve()");
      totals_->untraced_ms += ms;
      totals_->traced_ms += d.total_ms;
      totals_->covered_ms += d.preprocess_ms + d.solver_ms;
      pre_stats_ = d.stats;
      if (!v.pooled) preprocess_ms_.Add(d.preprocess_ms);
      if (v.method == Method::kLP) {
        kcliques_ = d.kcliques;
        if (v.pooled) {
          score_t4_.Add(d.score_ms);
          lp_t4_.Add(d.solver_ms);
        } else {
          order_ms_.Add(d.order_ms);
          dag_ms_.Add(d.dag_ms);
          score_t1_.Add(d.score_ms);
          lp_t1_.Add(d.solver_ms);
          lp_heap_t1_.Add(d.solver_ms - d.dag_ms - d.score_ms);
        }
      } else {
        (v.pooled ? hg_t4_ : hg_t1_).Add(d.solver_ms);
      }
    }
  }
}

void SolveBench::Finish() {
  for (size_t i = 0; i < std::size(kVariants); ++i) {
    report_->EndToEnd(std::string(kVariants[i].label) + "_s",
                      wall_s_[i].Median(), "s",
                      MedianNote("solves", wall_s_[i]));
  }
  const auto size_of = [&](size_t i) {
    return reference_[i] ? static_cast<double>(reference_[i]->size()) : 0.0;
  };
  report_->EndToEnd("lp_cliques", size_of(0), "count");
  report_->EndToEnd("hg_cliques", size_of(2), "count");
  if (!spans_->enabled()) return;

  Report* r = report_;
  r->Layer("graph.preprocess_ms", preprocess_ms_.Median(), "ms",
           "PreprocessForKCliques, serial");
  r->Layer("graph.peeled_nodes", static_cast<double>(pre_stats_.peeled_nodes),
           "count");
  r->Layer("graph.unsupported_edges",
           static_cast<double>(pre_stats_.unsupported_edges), "count");
  r->Layer("graph.kept_edge_ratio",
           pre_stats_.edges_before == 0
               ? 0.0
               : static_cast<double>(pre_stats_.edges_after) /
                     static_cast<double>(pre_stats_.edges_before),
           "ratio");
  r->Layer("graph.order_ms", order_ms_.Median(), "ms",
           "DegeneracyOrdering of the input");
  r->Layer("graph.dag_ms", dag_ms_.Median(), "ms",
           "LP's counting Dag on the pruned graph");
  const double score1 = score_t1_.Median(), score4 = score_t4_.Median();
  r->Layer("clique.score_t1_ms", score1, "ms", "ComputeNodeScores");
  r->Layer("clique.score_t4_ms", score4, "ms", "ComputeNodeScores");
  r->Layer("clique.kcliques", static_cast<double>(kcliques_), "count");
  const double lp1 = lp_t1_.Median(), lp4 = lp_t4_.Median();
  const double hg1 = hg_t1_.Median(), hg4 = hg_t4_.Median();
  r->Layer("core.lp_t1_ms", lp1, "ms", "SolveLightweight on the pruned graph");
  r->Layer("core.lp_t4_ms", lp4, "ms", "SolveLightweight on the pruned graph");
  r->Layer("core.lp_heap_t1_ms", lp_heap_t1_.Median(), "ms",
           "core.lp_t1 minus its scoring pass");
  r->Layer("core.hg_t1_ms", hg1, "ms", "SolveBasic on the pruned graph");
  r->Layer("core.hg_t4_ms", hg4, "ms", "SolveBasic on the pruned graph");
  r->Layer("util.pool_speedup_score", score1 / score4, "x",
           "clique.score_t1_ms / clique.score_t4_ms");
  r->Layer("util.pool_speedup_lp", lp1 / lp4, "x",
           "core.lp_t1_ms / core.lp_t4_ms");
  r->Layer("util.pool_speedup_hg", hg1 / hg4, "x",
           "core.hg_t1_ms / core.hg_t4_ms");
}

}  // namespace dkc::perfbench
