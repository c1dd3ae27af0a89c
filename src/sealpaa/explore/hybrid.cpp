#include "sealpaa/explore/hybrid.hpp"

#include <algorithm>
#include <stdexcept>

#include "sealpaa/adders/characteristics.hpp"
#include "sealpaa/engine/chain_evaluator.hpp"
#include "sealpaa/engine/method.hpp"
#include "sealpaa/explore/detail.hpp"

namespace sealpaa::explore {

// Shared with branch_bound.cpp through explore/detail.hpp so every
// optimizer finalizes designs and applies constraints through the exact
// same code (bit-consistent scores and rejection decisions).
namespace detail {

double pmf_metric(const analysis::ErrorPmf& pmf, Objective objective) {
  return objective == Objective::kMse ? pmf.mean_squared_error()
                                      : pmf.mean_error_distance();
}

CellCost cost_of(const adders::AdderCell& cell) {
  const adders::CellCharacteristics* row =
      adders::find_characteristics(cell);
  if (row == nullptr) return {};
  return {row->power_nw, row->area_ge};
}

bool usable(const CellCost& cost, const DesignConstraints& constraints) {
  if (constraints.max_power_nw && !cost.power) return false;
  if (constraints.max_area_ge && !cost.area) return false;
  return true;
}

HybridDesign finalize(std::vector<adders::AdderCell> stages,
                      const multibit::InputProfile& profile,
                      Objective objective) {
  HybridDesign design;
  design.stages = std::move(stages);
  design.objective = objective;
  // p_error/p_success go through the same recursion call sequence
  // regardless of the objective (kAnalyticPmf shares kRecursive's exact
  // code path), so switching objectives never perturbs the reported
  // error probability.
  const multibit::AdderChain chain(design.stages);
  try {
    const engine::Evaluation result =
        engine::evaluate(chain, profile, engine::Method::kAnalyticPmf);
    design.p_success = result.p_success;
    design.p_error = result.p_error;
    design.med = result.distribution->mean_error_distance;
    design.mse = result.distribution->mean_squared_error;
    design.wce = result.distribution->worst_case_error;
  } catch (const std::length_error&) {
    // PMF support guard tripped: report the probability-only result.
    const engine::Evaluation result =
        engine::evaluate(chain, profile, engine::Method::kRecursive);
    design.p_success = result.p_success;
    design.p_error = result.p_error;
  }
  double power = 0.0;
  double area = 0.0;
  bool have_power = true;
  bool have_area = true;
  for (const adders::AdderCell& cell : design.stages) {
    const CellCost cost = cost_of(cell);
    if (cost.power) {
      power += *cost.power;
    } else {
      have_power = false;
    }
    if (cost.area) {
      area += *cost.area;
    } else {
      have_area = false;
    }
  }
  if (have_power) design.power_nw = power;
  if (have_area) design.area_ge = area;
  return design;
}

void require_candidates(std::span<const adders::AdderCell> candidates) {
  if (candidates.empty()) {
    throw std::invalid_argument("HybridOptimizer: no candidate cells");
  }
}

}  // namespace detail

namespace {
using detail::CellCost;
using detail::cost_of;
using detail::finalize;
using detail::pmf_metric;
using detail::require_candidates;
using detail::usable;
}  // namespace

std::string_view objective_name(Objective objective) {
  switch (objective) {
    case Objective::kErrorRate: return "err";
    case Objective::kMed: return "med";
    case Objective::kMse: return "mse";
  }
  throw std::invalid_argument("explore::objective_name: unknown objective");
}

Objective parse_objective(std::string_view name) {
  if (name == "err") return Objective::kErrorRate;
  if (name == "med") return Objective::kMed;
  if (name == "mse") return Objective::kMse;
  throw std::invalid_argument("unknown objective '" + std::string(name) +
                              "' (valid: err, med, mse)");
}

HybridDesign HybridOptimizer::beam(const multibit::InputProfile& profile,
                                   std::span<const adders::AdderCell> candidates,
                                   const DesignConstraints& constraints,
                                   std::size_t beam_width,
                                   Objective objective) {
  require_candidates(candidates);
  if (beam_width == 0) {
    throw std::invalid_argument("HybridOptimizer::beam: beam width 0");
  }
  const std::size_t n = profile.width();
  const bool by_pmf = objective != Objective::kErrorRate;
  SearchStats stats;

  std::vector<CellCost> costs;
  costs.reserve(candidates.size());
  for (const adders::AdderCell& cell : candidates) {
    costs.push_back(cost_of(cell));
  }

  // Size the cache for the whole search (one insertion per expansion,
  // width x beam_width x candidates in total) so the hot loop never pays
  // for an eviction; the live set per round is only beam_width x
  // candidates, but dead prefixes are cheaper to keep than to evict.
  // Capped so pathological configurations stay within tens of MB.
  engine::ChainEvaluatorOptions cache_options;
  cache_options.cache_capacity = std::clamp<std::size_t>(
      n * beam_width * (candidates.size() + 1), 4096, std::size_t{1} << 18);
  engine::ChainEvaluator evaluator(
      profile,
      std::vector<adders::AdderCell>(candidates.begin(), candidates.end()),
      cache_options);

  struct Partial {
    std::vector<std::size_t> choice;
    double power = 0.0;
    double area = 0.0;
  };
  // Expansions are scored as (parent, choice) pairs; the full choice
  // vector is only materialized for the `beam_width` survivors of each
  // round, so the 1-in-|candidates| losers never pay an allocation.
  struct Extension {
    std::size_t parent = 0;
    std::size_t choice = 0;
    double score = 0.0;  // success mass (err) or prefix PMF metric
    double power = 0.0;
    double area = 0.0;
  };

  // Partial-design score: the err objective ranks by remaining success
  // mass (maximized, the historical behaviour — carry_after probes the
  // carry prefix cache), the PMF objectives by the finalized prefix
  // PMF's metric (minimized — error_pmf probes the PMF prefix cache).
  const auto prefix_score = [&](std::span<const std::size_t> choices) {
    return by_pmf ? pmf_metric(evaluator.error_pmf(choices), objective)
                  : evaluator.carry_after(choices).success_mass();
  };
  const auto better = [by_pmf](double a, double b) {
    return by_pmf ? a < b : a > b;
  };

  std::vector<Partial> beam_set{Partial{}};
  std::vector<Extension> expanded;
  std::vector<std::size_t> scratch;
  scratch.reserve(n);
  // The err objective scores each round's whole frontier in one
  // ChainEvaluator::score_extensions SoA batch: `pending` collects the
  // constraint-surviving (parent, choice) pairs in the exact per-parent,
  // per-candidate order of the historical loop, and `parent_choices`
  // hands the evaluator the shared parent prefixes.  Scores are
  // bit-identical to the per-extension carry_after / final_success
  // calls, so the survivors (and the winner) cannot change.
  std::vector<engine::ChainEvaluator::Extension> pending;
  std::vector<std::vector<std::size_t>> parent_choices;

  bool have_best = false;
  double best_score = 0.0;
  std::vector<std::size_t> best_choice;

  for (std::size_t i = 0; i < n; ++i) {
    expanded.clear();
    expanded.reserve(beam_set.size() * candidates.size());
    if (!by_pmf) {
      pending.clear();
      parent_choices.clear();
      parent_choices.reserve(beam_set.size());
      for (const Partial& partial : beam_set) {
        parent_choices.push_back(partial.choice);
      }
    }
    for (std::size_t parent = 0; parent < beam_set.size(); ++parent) {
      const Partial& partial = beam_set[parent];
      scratch.assign(partial.choice.begin(), partial.choice.end());
      scratch.push_back(0);
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        if (!usable(costs[c], constraints)) {
          ++stats.candidates_rejected;
          continue;
        }
        double power = partial.power;
        double area = partial.area;
        if (constraints.max_power_nw) {
          power += *costs[c].power;
          if (power > *constraints.max_power_nw) {
            ++stats.candidates_rejected;
            continue;
          }
        }
        if (constraints.max_area_ge) {
          area += *costs[c].area;
          if (area > *constraints.max_area_ge) {
            ++stats.candidates_rejected;
            continue;
          }
        }
        ++stats.candidates_evaluated;
        if (!by_pmf) {
          pending.push_back(engine::ChainEvaluator::Extension{
              static_cast<std::uint32_t>(parent),
              static_cast<std::uint8_t>(c)});
          if (i + 1 < n) {
            expanded.push_back(Extension{parent, c, 0.0, power, area});
          }
          continue;
        }
        scratch.back() = c;
        if (i + 1 == n) {
          const double score = pmf_metric(evaluator.error_pmf(scratch),
                                          objective);
          if (!have_best || better(score, best_score)) {
            have_best = true;
            best_score = score;
            best_choice = partial.choice;
            best_choice.push_back(c);
          }
        } else {
          expanded.push_back(Extension{parent, c, prefix_score(scratch),
                                       power, area});
        }
      }
    }
    if (!by_pmf && !pending.empty()) {
      const std::vector<double> scores =
          evaluator.score_extensions(parent_choices, pending);
      if (i + 1 == n) {
        for (std::size_t e = 0; e < pending.size(); ++e) {
          if (!have_best || better(scores[e], best_score)) {
            have_best = true;
            best_score = scores[e];
            best_choice = parent_choices[pending[e].parent];
            best_choice.push_back(pending[e].choice);
          }
        }
      } else {
        for (std::size_t e = 0; e < pending.size(); ++e) {
          expanded[e].score = scores[e];
        }
      }
    }
    if (i + 1 == n) break;
    if (expanded.empty()) {
      throw std::runtime_error(
          "HybridOptimizer::beam: constraints eliminated every design");
    }
    const std::size_t keep = std::min(beam_width, expanded.size());
    std::partial_sort(expanded.begin(),
                      expanded.begin() + static_cast<std::ptrdiff_t>(keep),
                      expanded.end(),
                      [&better](const Extension& a, const Extension& b) {
                        return better(a.score, b.score);
                      });
    expanded.resize(keep);
    std::vector<Partial> survivors;
    survivors.reserve(keep);
    for (const Extension& ext : expanded) {
      Partial next;
      next.choice = beam_set[ext.parent].choice;
      next.choice.push_back(ext.choice);
      next.power = ext.power;
      next.area = ext.area;
      survivors.push_back(std::move(next));
    }
    beam_set = std::move(survivors);
  }

  if (best_choice.empty()) {
    throw std::runtime_error(
        "HybridOptimizer::beam: no design satisfies the constraints");
  }
  std::vector<adders::AdderCell> stages;
  stages.reserve(n);
  for (std::size_t c : best_choice) stages.push_back(candidates[c]);
  HybridDesign design = finalize(std::move(stages), profile, objective);
  const engine::CacheStats& cache =
      by_pmf ? evaluator.pmf_stats() : evaluator.stats();
  stats.cache_hits = cache.hits;
  stats.cache_misses = cache.misses;
  stats.stages_computed = cache.stages_computed;
  const engine::BatchStats& batch = evaluator.batch_stats();
  stats.soa_batches = batch.batches;
  stats.soa_lanes = batch.lanes;
  stats.soa_max_lanes = batch.max_lanes;
  design.stats = stats;
  return design;
}

HybridDesign HybridOptimizer::greedy(const multibit::InputProfile& profile,
                                     std::span<const adders::AdderCell> candidates,
                                     const DesignConstraints& constraints,
                                     Objective objective) {
  return beam(profile, candidates, constraints, 1, objective);
}

}  // namespace sealpaa::explore
