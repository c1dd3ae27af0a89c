// Hybrid multi-stage adder design-space exploration.
//
// The paper (§5) observes that different LPAAs win in different input-
// probability regimes (LPAA7 for mostly-0 bits, LPAA1 for mostly-1 bits,
// LPAA6 everywhere) and proposes using its fast analysis to pick a
// per-stage mix — "an optimal design of a multistage hybrid adder ...
// based on more than one type of LPAA".  This module implements that
// search: exhaustive (exact optimum, small widths), beam search (wide
// adders) and a greedy per-stage heuristic, optionally under power/area
// budgets built from the Table 2 characteristics.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "sealpaa/adders/cell.hpp"
#include "sealpaa/multibit/chain.hpp"
#include "sealpaa/multibit/input_profile.hpp"

namespace sealpaa::explore {

/// Optional resource budgets for the search.  A candidate cell without
/// power (resp. area) data is rejected whenever the corresponding budget
/// is set.
struct DesignConstraints {
  std::optional<double> max_power_nw;
  std::optional<double> max_area_ge;
};

/// What the search minimises.
enum class Objective {
  kErrorRate,  // P(Error), the paper's stage-success event ("err")
  kMed,        // mean error distance E[|err|] via the analytic PMF
  kMse,        // mean squared error E[err^2] via the analytic PMF
};

/// Stable CLI name ("err", "med", "mse").
[[nodiscard]] std::string_view objective_name(Objective objective);
/// Parses a CLI objective name; throws std::invalid_argument listing the
/// valid names.
[[nodiscard]] Objective parse_objective(std::string_view name);

/// Execution accounting of one optimizer run — what the observability
/// layer reports for the DSE: how much of the space was scored, how much
/// the constraints pruned, and how well the engine's prefix reuse worked.
/// Wall-clock timing is *not* recorded here: call sites wrap the search
/// in an obs::ScopedTimer so DSE timings land in the run-report through
/// the same channel as every other phase.
struct SearchStats {
  /// Complete designs scored (exhaustive, branch-and-bound) or partial
  /// expansions considered (beam/greedy).
  std::uint64_t candidates_evaluated = 0;
  /// Candidates discarded by power/area constraints before scoring.
  std::uint64_t candidates_rejected = 0;
  /// Prefix-cache probes answered / missed (beam and greedy, which run
  /// on engine::ChainEvaluator; zero for the exhaustive DFS and for
  /// branch-and-bound, which share prefixes structurally — state held
  /// per DFS depth — instead of through a cache).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// Stage advances actually performed (advance_stage, or
  /// advance_error_pmf for the PMF-ranked objectives).  Without prefix
  /// reuse this would be ~candidates_evaluated * width; the ratio is the
  /// measured benefit of prefix reuse.  For branch-and-bound and
  /// exhaustive it counts DFS frame advances: one per child pushed, per
  /// PMF leaf scored and per stage of each unit's fixed prefix —
  /// deterministic single-threaded, so a resumed run reproduces it
  /// exactly.
  std::uint64_t stages_computed = 0;
  /// SoA batch accounting of the err-objective beam/greedy search, which
  /// scores each frontier expansion through one
  /// engine::ChainEvaluator::score_extensions call: batch operations
  /// submitted, total lanes across them, and the widest single batch.
  /// soa_max_lanes > 1 is the run-report proof that expansion ran
  /// lane-parallel rather than extension-at-a-time.  Zero for the
  /// exhaustive DFS, branch-and-bound and the PMF-ranked objectives.
  std::uint64_t soa_batches = 0;
  std::uint64_t soa_lanes = 0;
  std::uint64_t soa_max_lanes = 0;
  /// Branch-and-bound accounting (explore/branch_bound.hpp; exhaustive
  /// fills nodes_expanded and steal_count and never cuts; zero for beam
  /// and greedy).  nodes_expanded counts tree nodes whose children
  /// were generated after surviving the admissible-bound test;
  /// bound_cutoffs counts the prune events and nodes_pruned the leaves
  /// those cutoffs skipped (saturating at UINT64_MAX for astronomically
  /// large subtrees); steal_count counts successful work-steal
  /// operations between workers (always 0 single-threaded).
  std::uint64_t nodes_expanded = 0;
  std::uint64_t nodes_pruned = 0;
  std::uint64_t bound_cutoffs = 0;
  std::uint64_t steal_count = 0;

  friend bool operator==(const SearchStats&, const SearchStats&) = default;
};

/// A fully evaluated hybrid design.
struct HybridDesign {
  std::vector<adders::AdderCell> stages;
  double p_error = 1.0;
  double p_success = 0.0;
  /// The objective the search ranked designs by.
  Objective objective = Objective::kErrorRate;
  /// Analytic distribution metrics of the winning design (error-PMF
  /// propagation); nullopt only when the PMF support guard tripped.
  std::optional<double> med;
  std::optional<double> mse;
  std::optional<std::int64_t> wce;
  std::optional<double> power_nw;  // nullopt when any stage lacks data
  std::optional<double> area_ge;
  SearchStats stats;  // filled by the optimizer that produced the design

  [[nodiscard]] multibit::AdderChain chain() const {
    return multibit::AdderChain(stages);
  }
};

class HybridOptimizer {
 public:
  /// Exact optimum by enumerating all |candidates|^N chains.  Guarded by
  /// `max_combinations` (std::invalid_argument beyond it).  This is the
  /// branch-and-bound DFS of explore/branch_bound.hpp with the admissible
  /// bound and the beam seed switched off: the same unit split, frames,
  /// constraint screens, leaf scores and work stealing, but every design
  /// is either rejected by the constraints or scored, so
  /// candidates_evaluated + candidates_rejected == |candidates|^N and
  /// bound_cutoffs == nodes_pruned == 0.  Its SearchStats also report
  /// nodes_expanded and count frame advances in stages_computed.  Ties
  /// break to the lowest design index in the historical enumeration order
  /// (stage 0 the least significant digit), so the winner is independent
  /// of the thread count (`threads == 0` → the shared pool).  With
  /// `objective` kMed/kMse leaves are scored on the analytic metric of
  /// the finalized error PMF.  Like branch_bound() it accepts at most
  /// 255 candidate cells (std::invalid_argument beyond).  Defined in
  /// branch_bound.cpp.
  [[nodiscard]] static HybridDesign exhaustive(
      const multibit::InputProfile& profile,
      std::span<const adders::AdderCell> candidates,
      const DesignConstraints& constraints = {},
      std::uint64_t max_combinations = 50'000'000, unsigned threads = 0,
      Objective objective = Objective::kErrorRate);

  /// Provably-optimal branch-and-bound over the same space — the
  /// *quality* mode, replacing exhaustive() as the way to get the exact
  /// optimum (same winner, bit-identical score, typically well over 10x
  /// fewer nodes) and demoting beam()/greedy() to fast preview modes.
  /// Convenience forwarder over explore::BranchBoundOptimizer::optimize
  /// with default options (beam-seeded incumbent, no checkpointing);
  /// use the optimizer directly for checkpoint/resume and suspension.
  /// Defined in branch_bound.cpp.
  [[nodiscard]] static HybridDesign branch_bound(
      const multibit::InputProfile& profile,
      std::span<const adders::AdderCell> candidates,
      const DesignConstraints& constraints = {},
      Objective objective = Objective::kErrorRate, unsigned threads = 0);

  /// Beam search keeping the `beam_width` best (carry-state, budget)
  /// partial designs per stage, scored by remaining success mass.
  /// NOTE: beam and greedy are *fast preview* modes — they carry no
  /// optimality guarantee; branch_bound() is the quality mode.
  /// Extensions are scored through an engine::ChainEvaluator whose LRU
  /// prefix cache serves each surviving partial's carry state in O(1),
  /// so a stage costs one advance per expansion instead of a full
  /// re-analysis of the prefix.  Each round's surviving-constraint
  /// expansions go through one ChainEvaluator::score_extensions SoA
  /// batch (bit-identical to the per-extension calls; see
  /// SearchStats::soa_batches), so the whole beam_width x |candidates|
  /// frontier advances in a single lane-parallel pass per stage.
  /// With `objective` kMed/kMse partial designs are ranked by the
  /// analytic metric of their prefix PMF instead of success mass, served
  /// from the evaluator's PMF prefix cache at the same cache-hit
  /// latency; stats then report that cache's counters.
  [[nodiscard]] static HybridDesign beam(
      const multibit::InputProfile& profile,
      std::span<const adders::AdderCell> candidates,
      const DesignConstraints& constraints = {}, std::size_t beam_width = 64,
      Objective objective = Objective::kErrorRate);

  /// Greedy: each stage picks the cell optimising the post-stage score
  /// (success mass, or the prefix PMF metric for kMed/kMse).  Fast
  /// baseline for the ablation bench.
  [[nodiscard]] static HybridDesign greedy(
      const multibit::InputProfile& profile,
      std::span<const adders::AdderCell> candidates,
      const DesignConstraints& constraints = {},
      Objective objective = Objective::kErrorRate);
};

}  // namespace sealpaa::explore
