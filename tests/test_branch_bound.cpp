// Branch-and-bound DSE: optimality vs the exhaustive reference and an
// independent brute-force oracle, determinism across thread counts,
// checkpoint serialization and the kill/resume contract.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/adders/characteristics.hpp"
#include "sealpaa/analysis/error_pmf.hpp"
#include "sealpaa/analysis/mkl.hpp"
#include "sealpaa/analysis/recursive.hpp"
#include "sealpaa/explore/branch_bound.hpp"
#include "sealpaa/explore/hybrid.hpp"
#include "sealpaa/multibit/chain.hpp"
#include "sealpaa/obs/checkpoint.hpp"
#include "sealpaa/obs/json.hpp"
#include "sealpaa/obs/serialize.hpp"

namespace {

using sealpaa::adders::AdderCell;
using sealpaa::adders::accurate;
using sealpaa::adders::builtin_lpaas;
using sealpaa::adders::lpaa;
using sealpaa::explore::BnbCheckpoint;
using sealpaa::explore::BnbOptions;
using sealpaa::explore::BnbResult;
using sealpaa::explore::BranchBoundOptimizer;
using sealpaa::explore::DesignConstraints;
using sealpaa::explore::HybridDesign;
using sealpaa::explore::HybridOptimizer;
using sealpaa::explore::Objective;
using sealpaa::explore::SearchStats;
using sealpaa::multibit::InputProfile;

InputProfile varied_profile(std::size_t width) {
  std::vector<double> p_a;
  std::vector<double> p_b;
  for (std::size_t i = 0; i < width; ++i) {
    p_a.push_back(0.15 + 0.1 * static_cast<double>(i % 8));
    p_b.push_back(0.85 - 0.09 * static_cast<double>(i % 8));
  }
  return InputProfile(p_a, p_b, 0.3);
}

BnbOptions threads_opt(unsigned threads) {
  BnbOptions options;
  options.threads = threads;
  return options;
}

std::vector<std::string> stage_names(const HybridDesign& design) {
  std::vector<std::string> names;
  for (const auto& stage : design.stages) names.emplace_back(stage.name());
  return names;
}

/// Palette per objective for the multi-objective fixtures.  The residue
/// bound barely prunes an unconstrained all-approximate space, so the
/// PMF-ranked objectives get a 3-cell palette that keeps their
/// near-exhaustive enumeration cheap.
std::vector<sealpaa::adders::AdderCell> palette_for(Objective objective) {
  if (objective == Objective::kErrorRate) {
    return {builtin_lpaas().begin(), builtin_lpaas().end()};
  }
  return {lpaa(1), lpaa(3), lpaa(7)};
}

void expect_same_design(const HybridDesign& a, const HybridDesign& b) {
  EXPECT_EQ(stage_names(a), stage_names(b));
  EXPECT_EQ(a.p_error, b.p_error);  // bit-identical, not just close
  EXPECT_EQ(a.p_success, b.p_success);
  EXPECT_EQ(a.med, b.med);
  EXPECT_EQ(a.mse, b.mse);
}

/// The best design of an independent brute-force loop that shares no
/// code with the search: every choice vector in historical index order
/// (stage 0 the least significant digit), each design scored from
/// scratch, the best kept by (score, lowest index), designs over the
/// power budget (or using a cell without power data) rejected.
struct OracleBest {
  std::vector<std::string> names;
  double score = 0.0;
  std::uint64_t evaluated = 0;
  std::uint64_t rejected = 0;
};

OracleBest brute_force(const InputProfile& profile,
                       std::span<const AdderCell> palette,
                       const DesignConstraints& constraints,
                       Objective objective) {
  namespace analysis = sealpaa::analysis;
  const std::size_t n = profile.width();
  std::vector<std::size_t> choice(n, 0);
  std::vector<AdderCell> stages(n, palette[0]);
  OracleBest best;
  bool found = false;
  for (;;) {
    double power = 0.0;
    bool usable = true;
    for (std::size_t i = 0; i < n; ++i) {
      stages[i] = palette[choice[i]];
      if (!constraints.max_power_nw) continue;
      const auto* row = sealpaa::adders::find_characteristics(stages[i]);
      usable = usable && row != nullptr && row->power_nw.has_value();
      if (usable) power += *row->power_nw;
    }
    if (!usable ||
        (constraints.max_power_nw && power > *constraints.max_power_nw)) {
      ++best.rejected;
    } else {
      ++best.evaluated;
      double score = 0.0;
      if (objective == Objective::kErrorRate) {
        analysis::CarryState carry{1.0 - profile.p_cin(), profile.p_cin()};
        for (std::size_t i = 0; i + 1 < n; ++i) {
          carry = analysis::advance_stage(
              analysis::MklMatrices::from_cell(stages[i]), profile.p_a(i),
              profile.p_b(i), carry);
        }
        score = analysis::final_success(
            analysis::MklMatrices::from_cell(stages[n - 1]),
            profile.p_a(n - 1), profile.p_b(n - 1), carry);
      } else {
        const analysis::ErrorPmf pmf = analysis::propagate_error_pmf(
            sealpaa::multibit::AdderChain(stages), profile);
        score = objective == Objective::kMed ? pmf.mean_error_distance()
                                             : pmf.mean_squared_error();
      }
      // Enumeration runs in ascending index order, so only a strictly
      // better score may replace the incumbent.
      const bool better = objective == Objective::kErrorRate
                              ? score > best.score
                              : score < best.score;
      if (!found || better) {
        found = true;
        best.score = score;
        best.names.clear();
        for (const AdderCell& cell : stages) {
          best.names.emplace_back(cell.name());
        }
      }
    }
    std::size_t i = 0;
    while (i < n && ++choice[i] == palette.size()) choice[i++] = 0;
    if (i == n) return best;
  }
}

/// Palettes with exact score ties.  The unconstrained one repeats LPAA1
/// under another name, so a winner taken from the wrong side of a tie
/// shows in the stage names.  The budgeted one repeats LPAA2 itself (a
/// renamed cell would lose its power data) and carries a cell without
/// power data (LPAA6, always rejected).
std::vector<AdderCell> tie_palette() {
  return {lpaa(1), lpaa(7), AdderCell("LPAA1copy", lpaa(1).rows()), lpaa(3)};
}
std::vector<AdderCell> budget_palette() {
  return {accurate(), lpaa(2), lpaa(6), lpaa(5), lpaa(2)};
}
DesignConstraints half_accurate_budget(std::size_t width) {
  DesignConstraints constraints;
  constraints.max_power_nw = 1385.0 * static_cast<double>(width / 2) +
                             294.0 * static_cast<double>(width - width / 2);
  return constraints;
}

double objective_score(const HybridDesign& design, Objective objective) {
  if (objective == Objective::kErrorRate) return design.p_success;
  return objective == Objective::kMed ? design.med.value() : design.mse.value();
}

TEST(BranchBound, ExhaustiveAndOptimizeMatchBruteForceOracle) {
  for (const Objective objective :
       {Objective::kErrorRate, Objective::kMed, Objective::kMse}) {
    for (const bool budgeted : {false, true}) {
      for (std::size_t width = 4; width <= 6; ++width) {
        const InputProfile profile = varied_profile(width);
        const std::vector<AdderCell> palette =
            budgeted ? budget_palette() : tie_palette();
        const DesignConstraints constraints =
            budgeted ? half_accurate_budget(width) : DesignConstraints{};
        const OracleBest oracle =
            brute_force(profile, palette, constraints, objective);
        ASSERT_GT(oracle.evaluated, 0u);
        for (const unsigned threads : {1u, 4u}) {
          SCOPED_TRACE(std::string(sealpaa::explore::objective_name(objective)) +
                       (budgeted ? " budgeted" : " unconstrained") + " w" +
                       std::to_string(width) + " threads " +
                       std::to_string(threads));
          const HybridDesign exact = HybridOptimizer::exhaustive(
              profile, palette, constraints, 50'000'000, threads, objective);
          const BnbResult bnb = BranchBoundOptimizer::optimize(
              profile, palette, constraints, objective, threads_opt(threads));
          ASSERT_TRUE(bnb.complete);
          for (const HybridDesign* design : {&exact, &bnb.design}) {
            EXPECT_EQ(stage_names(*design), oracle.names);
            EXPECT_EQ(objective_score(*design, objective), oracle.score);
          }
          expect_same_design(bnb.design, exact);
          EXPECT_EQ(exact.stats.candidates_evaluated, oracle.evaluated);
          EXPECT_EQ(exact.stats.candidates_rejected, oracle.rejected);
        }
      }
    }
  }
}

TEST(BranchBound, ExactTailLeavesMatchExhaustiveAndOracle) {
  // Leaves ending in AccuFA finalize the frame where their exact run
  // starts instead of advancing; the winners of these budgets end in
  // AccuFA, and each must score bit for bit like the oracle's
  // propagate_error_pmf and within 1e-14 of a stage-by-stage loop.
  const std::vector<AdderCell> palette = {accurate(), lpaa(2), lpaa(3),
                                          lpaa(5)};
  for (const Objective objective : {Objective::kMed, Objective::kMse}) {
    for (std::size_t width = 5; width <= 7; ++width) {
      const InputProfile profile = varied_profile(width);
      DesignConstraints constraints;
      constraints.max_power_nw =
          1385.0 * static_cast<double>(width - 2) + 294.0 * 2.0;
      const OracleBest oracle =
          brute_force(profile, palette, constraints, objective);
      ASSERT_EQ(oracle.names.back(), "AccuFA");
      for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(std::string(sealpaa::explore::objective_name(objective)) +
                     " w" + std::to_string(width) + " threads " +
                     std::to_string(threads));
        const HybridDesign exact = HybridOptimizer::exhaustive(
            profile, palette, constraints, 50'000'000, threads, objective);
        const BnbResult bnb = BranchBoundOptimizer::optimize(
            profile, palette, constraints, objective, threads_opt(threads));
        ASSERT_TRUE(bnb.complete);
        for (const HybridDesign* design : {&exact, &bnb.design}) {
          EXPECT_EQ(stage_names(*design), oracle.names);
          EXPECT_EQ(objective_score(*design, objective), oracle.score);
        }
        expect_same_design(bnb.design, exact);
        EXPECT_EQ(exact.stats.candidates_evaluated, oracle.evaluated);
      }

      namespace analysis = sealpaa::analysis;
      std::vector<AdderCell> stages;
      for (const std::string& name : oracle.names) {
        for (const AdderCell& cell : palette) {
          if (cell.name() == name) stages.push_back(cell);
        }
      }
      analysis::ErrorPmfState state =
          analysis::make_error_pmf_state(profile.p_cin());
      for (std::size_t i = 0; i < width; ++i) {
        analysis::advance_error_pmf(state, stages[i], profile.p_a(i),
                                    profile.p_b(i));
      }
      const analysis::ErrorPmf unfolded = analysis::finalize_error_pmf(state);
      const double want = objective == Objective::kMed
                              ? unfolded.mean_error_distance()
                              : unfolded.mean_squared_error();
      EXPECT_LE(std::abs(oracle.score - want), 1e-14 * want);
    }
  }
}

TEST(BranchBound, ExhaustiveNeverCutsAndCountsEveryDesign) {
  const std::size_t width = 6;
  const InputProfile profile = varied_profile(width);
  const std::vector<AdderCell> palette = budget_palette();
  std::uint64_t designs = 1;
  for (std::size_t i = 0; i < width; ++i) designs *= palette.size();
  for (const Objective objective :
       {Objective::kErrorRate, Objective::kMed, Objective::kMse}) {
    SCOPED_TRACE(std::string(sealpaa::explore::objective_name(objective)));
    const SearchStats one =
        HybridOptimizer::exhaustive(profile, palette,
                                    half_accurate_budget(width), 50'000'000,
                                    1, objective)
            .stats;
    const SearchStats four =
        HybridOptimizer::exhaustive(profile, palette,
                                    half_accurate_budget(width), 50'000'000,
                                    4, objective)
            .stats;
    for (const SearchStats* stats : {&one, &four}) {
      EXPECT_EQ(stats->bound_cutoffs, 0u);
      EXPECT_EQ(stats->nodes_pruned, 0u);
      EXPECT_GT(stats->candidates_rejected, 0u);
      EXPECT_EQ(stats->candidates_evaluated + stats->candidates_rejected,
                designs);
    }
    EXPECT_EQ(one.candidates_evaluated, four.candidates_evaluated);
    EXPECT_EQ(one.candidates_rejected, four.candidates_rejected);
  }
}

TEST(BranchBound, MatchesExhaustiveOptimumAllObjectives) {
  const InputProfile profile = varied_profile(5);
  for (const Objective objective :
       {Objective::kErrorRate, Objective::kMed, Objective::kMse}) {
    const HybridDesign exact = HybridOptimizer::exhaustive(
        profile, builtin_lpaas(), {}, 50'000'000, 1, objective);
    const BnbResult bnb = BranchBoundOptimizer::optimize(
        profile, builtin_lpaas(), {}, objective, threads_opt(1));
    ASSERT_TRUE(bnb.complete);
    ASSERT_TRUE(bnb.has_incumbent);
    expect_same_design(bnb.design, exact);
  }
}

TEST(BranchBound, PrunesWellOverTenfoldVsExhaustive) {
  // The admissible bound must actually prune: the quality mode's whole
  // point is reaching the same optimum on far fewer nodes.  Width 8
  // gives the carry-mass bound room to bite below the fixed unit-split
  // depth (at tiny widths every node sits at the split depth and the
  // search legitimately degenerates to enumeration).
  const InputProfile profile = varied_profile(8);
  const HybridDesign exact = HybridOptimizer::exhaustive(
      profile, builtin_lpaas(), {}, 50'000'000, 1);
  const BnbResult bnb = BranchBoundOptimizer::optimize(
      profile, builtin_lpaas(), {}, Objective::kErrorRate, threads_opt(1));
  expect_same_design(bnb.design, exact);
  EXPECT_GT(bnb.design.stats.bound_cutoffs, 0u);
  EXPECT_LE(bnb.design.stats.nodes_expanded +
                bnb.design.stats.candidates_evaluated,
            exact.stats.candidates_evaluated / 10);
}

TEST(BranchBound, HonorsPowerConstraintLikeExhaustive) {
  const InputProfile profile = varied_profile(5);
  std::vector<sealpaa::adders::AdderCell> candidates;
  for (int i = 1; i <= 5; ++i) candidates.push_back(lpaa(i));
  candidates.push_back(accurate());
  DesignConstraints constraints;
  constraints.max_power_nw = 5000.0;
  const HybridDesign exact = HybridOptimizer::exhaustive(
      profile, candidates, constraints, 50'000'000, 1);
  const BnbResult bnb = BranchBoundOptimizer::optimize(
      profile, candidates, constraints, Objective::kErrorRate,
      threads_opt(1));
  expect_same_design(bnb.design, exact);
  EXPECT_GT(bnb.design.stats.candidates_rejected, 0u);
}

TEST(BranchBound, ThrowsWhenConstraintsEliminateEverything) {
  const InputProfile profile = varied_profile(4);
  // A palette without the zero-power wire adder, under a budget below
  // any single stage: no design can satisfy it.
  const std::vector<sealpaa::adders::AdderCell> candidates = {lpaa(1),
                                                              lpaa(2)};
  DesignConstraints constraints;
  constraints.max_power_nw = 0.5;
  EXPECT_THROW(
      BranchBoundOptimizer::optimize(profile, candidates, constraints),
      std::runtime_error);
}

TEST(BranchBound, RejectsEmptyPalette) {
  const InputProfile profile = varied_profile(4);
  EXPECT_THROW(BranchBoundOptimizer::optimize(profile, {}),
               std::invalid_argument);
}

TEST(BranchBound, DesignIdenticalAcrossThreadCounts) {
  const InputProfile profile = varied_profile(6);
  for (const Objective objective : {Objective::kErrorRate, Objective::kMed}) {
    const BnbResult one = BranchBoundOptimizer::optimize(
        profile, builtin_lpaas(), {}, objective, threads_opt(1));
    const BnbResult eight = BranchBoundOptimizer::optimize(
        profile, builtin_lpaas(), {}, objective, threads_opt(8));
    expect_same_design(one.design, eight.design);
    EXPECT_EQ(one.design.stats.steal_count, 0u);
  }
}

TEST(BranchBound, UnseededSearchFindsTheSameOptimum) {
  const InputProfile profile = varied_profile(5);
  const BnbResult seeded = BranchBoundOptimizer::optimize(
      profile, builtin_lpaas(), {}, Objective::kErrorRate, threads_opt(1));
  BnbOptions unseeded_options;
  unseeded_options.threads = 1;
  unseeded_options.seed_beam_width = 0;
  const BnbResult unseeded = BranchBoundOptimizer::optimize(
      profile, builtin_lpaas(), {}, Objective::kErrorRate, unseeded_options);
  expect_same_design(seeded.design, unseeded.design);
  // Seeding can only help: the seeded run never expands more nodes.
  EXPECT_LE(seeded.design.stats.nodes_expanded,
            unseeded.design.stats.nodes_expanded);
}

// The headline fixture: suspend ("kill") the search mid-run, persist the
// checkpoint through the real JSON file path, resume in what models a
// fresh process, and require the final incumbent AND every SearchStats
// counter to equal the uninterrupted run exactly.  The search keeps its
// state in the DFS frames, not in a cache, so no counter depends on
// cache warmth and none is exempt.
TEST(BranchBound, KillAndResumeReproducesUninterruptedRun) {
  const InputProfile profile = varied_profile(6);
  const std::string path =
      testing::TempDir() + "/sealpaa_bnb_resume_test.json";
  for (const Objective objective :
       {Objective::kErrorRate, Objective::kMed, Objective::kMse}) {
    SCOPED_TRACE(std::string(sealpaa::explore::objective_name(objective)));
    const std::vector<sealpaa::adders::AdderCell> palette =
        palette_for(objective);
    BnbOptions suspend_options;
    suspend_options.threads = 1;
    suspend_options.suspend_after_units = 3;
    suspend_options.checkpoint_every_units = 1;
    suspend_options.checkpoint_sink =
        [&path](const BnbCheckpoint& checkpoint) {
          sealpaa::obs::write_bnb_checkpoint(path, checkpoint);
        };
    const BnbResult suspended = BranchBoundOptimizer::optimize(
        profile, palette, {}, objective, suspend_options);
    ASSERT_FALSE(suspended.complete);
    EXPECT_EQ(suspended.checkpoint.completed_units.size(), 3u);

    const BnbCheckpoint restored = sealpaa::obs::read_bnb_checkpoint(path);
    const BnbResult resumed = BranchBoundOptimizer::resume(
        profile, palette, restored, {}, objective, threads_opt(1));
    ASSERT_TRUE(resumed.complete);

    const BnbResult uninterrupted = BranchBoundOptimizer::optimize(
        profile, palette, {}, objective, threads_opt(1));
    expect_same_design(resumed.design, uninterrupted.design);
    EXPECT_TRUE(resumed.design.stats == uninterrupted.design.stats)
        << "resumed: " << sealpaa::obs::to_json(resumed.design.stats).dump()
        << "\nuninterrupted: "
        << sealpaa::obs::to_json(uninterrupted.design.stats).dump();
  }
  std::remove(path.c_str());
}

// Work bound: with the search state carried on the DFS stack, a node
// costs one frame advance per child and no prefix-cache traffic.  Every
// expanded node advances at most k children (or scores at most k PMF
// leaves), and each unit derives its split_depth-stage fixed prefix
// once, so per-node prefix re-derivation cannot creep back unnoticed.
TEST(BranchBound, FrameAdvancesBoundedByExpandedNodes) {
  const InputProfile profile = varied_profile(7);
  for (const Objective objective :
       {Objective::kErrorRate, Objective::kMed, Objective::kMse}) {
    const std::vector<sealpaa::adders::AdderCell> palette =
        palette_for(objective);
    const std::size_t k = palette.size();
    BnbOptions probe;
    probe.threads = 1;
    probe.suspend_after_units = 1;
    const BnbCheckpoint split =
        BranchBoundOptimizer::optimize(profile, palette, {}, objective, probe)
            .checkpoint;
    ASSERT_GT(split.total_units, 1u);
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(sealpaa::explore::objective_name(objective)) +
                   " threads " + std::to_string(threads));
      const SearchStats stats =
          BranchBoundOptimizer::optimize(profile, palette, {}, objective,
                                         threads_opt(threads))
              .design.stats;
      EXPECT_EQ(stats.cache_hits, 0u);
      EXPECT_EQ(stats.cache_misses, 0u);
      EXPECT_EQ(stats.soa_batches, 0u);
      EXPECT_EQ(stats.soa_lanes, 0u);
      EXPECT_EQ(stats.soa_max_lanes, 0u);
      EXPECT_GT(stats.nodes_expanded, 0u);
      EXPECT_GT(stats.stages_computed, 0u);
      EXPECT_LE(stats.stages_computed,
                k * stats.nodes_expanded +
                    split.split_depth * split.total_units);
    }
  }
}

TEST(BranchBound, CheckpointJsonRoundTripsExactly) {
  const InputProfile profile = varied_profile(5);
  BnbOptions options;
  options.threads = 1;
  options.suspend_after_units = 2;
  const BnbResult suspended = BranchBoundOptimizer::optimize(
      profile, builtin_lpaas(), {}, Objective::kMse, options);
  ASSERT_FALSE(suspended.complete);
  const BnbCheckpoint& original = suspended.checkpoint;
  const BnbCheckpoint reparsed = sealpaa::obs::parse_bnb_checkpoint(
      sealpaa::obs::Json::parse(sealpaa::obs::to_json(original).dump()));
  EXPECT_EQ(reparsed.objective, original.objective);
  EXPECT_EQ(reparsed.width, original.width);
  EXPECT_EQ(reparsed.palette, original.palette);
  EXPECT_EQ(reparsed.p_a, original.p_a);
  EXPECT_EQ(reparsed.p_b, original.p_b);
  EXPECT_EQ(reparsed.p_cin, original.p_cin);
  EXPECT_EQ(reparsed.max_power_nw, original.max_power_nw);
  EXPECT_EQ(reparsed.max_area_ge, original.max_area_ge);
  EXPECT_EQ(reparsed.split_depth, original.split_depth);
  EXPECT_EQ(reparsed.total_units, original.total_units);
  EXPECT_EQ(reparsed.incumbent_found, original.incumbent_found);
  EXPECT_EQ(reparsed.incumbent_choices, original.incumbent_choices);
  EXPECT_EQ(reparsed.incumbent_score, original.incumbent_score);  // bit-exact
  EXPECT_EQ(reparsed.incumbent_index, original.incumbent_index);
  EXPECT_EQ(reparsed.completed_units, original.completed_units);
  EXPECT_EQ(reparsed.stats.nodes_expanded, original.stats.nodes_expanded);
  EXPECT_EQ(reparsed.stats.candidates_evaluated,
            original.stats.candidates_evaluated);
}

TEST(BranchBound, ResumeRejectsMismatchedSearch) {
  const InputProfile profile = varied_profile(5);
  BnbOptions options;
  options.threads = 1;
  options.suspend_after_units = 1;
  const BnbResult suspended = BranchBoundOptimizer::optimize(
      profile, builtin_lpaas(), {}, Objective::kErrorRate, options);
  ASSERT_FALSE(suspended.complete);
  // Wrong objective.
  EXPECT_THROW(BranchBoundOptimizer::resume(profile, builtin_lpaas(),
                                            suspended.checkpoint, {},
                                            Objective::kMed),
               std::invalid_argument);
  // Wrong palette.
  std::vector<sealpaa::adders::AdderCell> other(builtin_lpaas().begin(),
                                                builtin_lpaas().end());
  other[0] = accurate();
  EXPECT_THROW(BranchBoundOptimizer::resume(profile, other,
                                            suspended.checkpoint),
               std::invalid_argument);
  // Wrong profile.
  EXPECT_THROW(BranchBoundOptimizer::resume(varied_profile(4),
                                            builtin_lpaas(),
                                            suspended.checkpoint),
               std::invalid_argument);
}

// The checkpoint's palette fingerprints are a file format: bit r is row
// r's sum, bit 8+r its carry-out.  These values were recorded from the
// first release of the format, so a checkpoint written then still
// validates.
TEST(BranchBound, CheckpointPaletteFingerprintsArePinned) {
  const std::vector<AdderCell> palette = {accurate(), lpaa(1), lpaa(2),
                                          lpaa(3),    lpaa(4), lpaa(5),
                                          lpaa(6),    lpaa(7)};
  const std::vector<std::uint16_t> pinned = {59542, 60546, 59415, 60435,
                                             61578, 61644, 43670, 59582};
  BnbOptions options;
  options.threads = 1;
  options.suspend_after_units = 1;
  const BnbResult suspended = BranchBoundOptimizer::optimize(
      varied_profile(4), palette, {}, Objective::kErrorRate, options);
  ASSERT_FALSE(suspended.complete);
  EXPECT_EQ(suspended.checkpoint.palette, pinned);
}

// A checkpoint written by the first release of the format (sealpaa_cli
// hybrid --bits=5 --profile=0.2,0.4,0.5,0.7,0.9 --budget-nw=6000
// --search=bnb --threads=1 --suspend-after-units=3) still validates and
// resumes to the uninterrupted run's design and counters.
TEST(BranchBound, ResumesCheckpointFromFirstFormatRelease) {
  constexpr const char* kCheckpoint = R"({
    "schema": "sealpaa.bnb-checkpoint", "version": 1,
    "objective": "err", "width": 5,
    "palette": [60546, 59415, 60435, 61578, 61644, 59542],
    "profile": {
      "p_a": [0.20000000000000001, 0.40000000000000002, 0.5,
              0.69999999999999996, 0.90000000000000002],
      "p_b": [0.20000000000000001, 0.40000000000000002, 0.5,
              0.69999999999999996, 0.90000000000000002],
      "p_cin": 0.20000000000000001
    },
    "constraints": {"max_power_nw": 6000, "max_area_ge": null},
    "split_depth": 3, "total_units": 216,
    "incumbent": {"choices": [5, 5, 5, 5, 3],
                  "score": 0.87751748800000018,
                  "score_bits": "3fec149f8e14192d", "index": 5183},
    "completed_units": [0, 1, 2],
    "stats": {"candidates_evaluated": 0, "candidates_rejected": 0,
              "cache_hits": 0, "cache_misses": 0, "stages_computed": 9,
              "soa_batches": 0, "soa_lanes": 0, "soa_max_lanes": 0,
              "nodes_expanded": 0, "nodes_pruned": 108, "bound_cutoffs": 3,
              "steal_count": 0}
  })";
  const std::vector<double> p = {0.2, 0.4, 0.5, 0.7, 0.9};
  const InputProfile profile(p, p, p.front());
  const std::vector<AdderCell> palette = {lpaa(1), lpaa(2), lpaa(3),
                                          lpaa(4), lpaa(5), accurate()};
  DesignConstraints constraints;
  constraints.max_power_nw = 6000.0;
  const BnbCheckpoint checkpoint = sealpaa::obs::parse_bnb_checkpoint(
      sealpaa::obs::Json::parse(kCheckpoint));
  const BnbResult resumed =
      BranchBoundOptimizer::resume(profile, palette, checkpoint, constraints,
                                   Objective::kErrorRate, threads_opt(1));
  ASSERT_TRUE(resumed.complete);
  const BnbResult uninterrupted = BranchBoundOptimizer::optimize(
      profile, palette, constraints, Objective::kErrorRate, threads_opt(1));
  expect_same_design(resumed.design, uninterrupted.design);
  EXPECT_EQ(stage_names(resumed.design),
            (std::vector<std::string>{"AccuFA", "AccuFA", "AccuFA", "AccuFA",
                                      "LPAA4"}));
  EXPECT_TRUE(resumed.design.stats == uninterrupted.design.stats);
}

// Satellite regression: the SearchStats JSON projection must emit every
// counter explicitly, including zero values, so report consumers can
// rely on a stable key set across optimizers.
TEST(BranchBound, SearchStatsJsonEmitsAllKeysIncludingZeros) {
  const SearchStats zero;
  const sealpaa::obs::Json json = sealpaa::obs::to_json(zero);
  for (const char* key :
       {"candidates_evaluated", "candidates_rejected", "cache_hits",
        "cache_misses", "stages_computed", "soa_batches", "soa_lanes",
        "soa_max_lanes", "nodes_expanded", "nodes_pruned", "bound_cutoffs",
        "steal_count"}) {
    const sealpaa::obs::Json* value = json.find(key);
    ASSERT_NE(value, nullptr) << key;
    EXPECT_EQ(value->unsigned_integer(), 0u) << key;
  }
}

TEST(BranchBound, HybridOptimizerForwarderMatchesOptimize) {
  const InputProfile profile = varied_profile(5);
  const HybridDesign via_forwarder = HybridOptimizer::branch_bound(
      profile, builtin_lpaas(), {}, Objective::kErrorRate, 1);
  const BnbResult direct = BranchBoundOptimizer::optimize(
      profile, builtin_lpaas(), {}, Objective::kErrorRate, threads_opt(1));
  expect_same_design(via_forwarder, direct.design);
}

}  // namespace
