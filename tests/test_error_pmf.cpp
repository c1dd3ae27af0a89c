// The analytic error-PMF propagation contract (analysis/error_pmf.*):
//
//  * the propagated distribution is a true PMF — mass 1 within 1e-12,
//    strictly sorted support, positive probabilities — over 200+
//    randomized hybrid chains at widths 4..16;
//  * MED/MSE/WCE/error-rate and the full point-by-point distribution
//    match the weighted-exhaustive oracle (2^(2N+1) enumeration);
//  * an exact chain collapses to the point mass at 0;
//  * the dense and sparse mixture accumulators are bit-identical, and
//    convolve()'s FFT path agrees with the exact naive product;
//  * the engine integration (the ChainEvaluator PMF prefix cache)
//    reproduces the batch propagation exactly while accounting its cache
//    traffic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/adders/cell.hpp"
#include "sealpaa/analysis/error_pmf.hpp"
#include "sealpaa/baseline/weighted_exhaustive.hpp"
#include "sealpaa/engine/chain_evaluator.hpp"
#include "sealpaa/multibit/chain.hpp"
#include "sealpaa/multibit/input_profile.hpp"
#include "sealpaa/prob/rng.hpp"
#include "sealpaa/sim/metrics.hpp"

namespace {

using sealpaa::adders::AdderCell;
using sealpaa::analysis::ErrorPmf;
using sealpaa::analysis::ErrorPmfState;
using sealpaa::analysis::PmfOptions;
using sealpaa::baseline::ExhaustiveReport;
using sealpaa::baseline::WeightedExhaustive;
using sealpaa::engine::ChainEvaluator;
using sealpaa::engine::ChainEvaluatorOptions;
using sealpaa::multibit::AdderChain;
using sealpaa::multibit::InputProfile;

/// Random 8-row truth table; exact tables are rerolled so every case
/// exercises a genuinely approximate cell.
AdderCell random_cell(sealpaa::prob::SplitMix64& rng, int index) {
  for (;;) {
    std::string sum_column(8, '0');
    std::string carry_column(8, '0');
    const std::uint64_t bits = rng.next();
    for (int row = 0; row < 8; ++row) {
      if (((bits >> row) & 1ULL) != 0) {
        sum_column[static_cast<std::size_t>(row)] = '1';
      }
      if (((bits >> (8 + row)) & 1ULL) != 0) {
        carry_column[static_cast<std::size_t>(row)] = '1';
      }
    }
    AdderCell cell = AdderCell::from_columns(
        "RND" + std::to_string(index), sum_column, carry_column,
        "randomized error-PMF test cell");
    if (!cell.is_exact()) return cell;
  }
}

std::vector<AdderCell> random_chain(sealpaa::prob::SplitMix64& rng,
                                    std::size_t width, int trial) {
  std::vector<AdderCell> stages;
  stages.reserve(width);
  for (std::size_t s = 0; s < width; ++s) {
    stages.push_back(random_cell(rng, trial * 100 + static_cast<int>(s)));
  }
  return stages;
}

/// "Within 1e-12" at any magnitude: absolute for probabilities, relative
/// once the oracle moments grow past 1.
void expect_close(double got, double want, const std::string& context) {
  const double tolerance = 1e-12 * std::max(1.0, std::abs(want));
  EXPECT_NEAR(got, want, tolerance) << context;
}

void expect_same_entries(const ErrorPmf& got, const ErrorPmf& want,
                         const std::string& context) {
  ASSERT_EQ(got.support_size(), want.support_size()) << context;
  for (std::size_t i = 0; i < want.support_size(); ++i) {
    EXPECT_EQ(got.entries()[i].value, want.entries()[i].value)
        << context << " point " << i;
    EXPECT_EQ(got.entries()[i].probability, want.entries()[i].probability)
        << context << " point " << i;
  }
}

// ---------------------------------------------------------------------------
// PMF invariants over randomized hybrid chains

TEST(ErrorPmf, MassSumsToOneOverRandomHybridChains) {
  sealpaa::prob::SplitMix64 cell_rng(0x70f'0000'0001ULL);
  sealpaa::prob::Xoshiro256StarStar profile_rng(0x70f'0000'0002ULL);
  for (int trial = 0; trial < 208; ++trial) {
    const std::size_t width = 4 + static_cast<std::size_t>(trial % 13);
    const std::vector<AdderCell> stages = random_chain(cell_rng, width, trial);
    const InputProfile profile =
        InputProfile::random(width, profile_rng, 0.05, 0.95);
    const std::string context =
        "trial " + std::to_string(trial) + " width " + std::to_string(width);

    const ErrorPmf pmf =
        sealpaa::analysis::propagate_error_pmf(AdderChain(stages), profile);
    ASSERT_FALSE(pmf.empty()) << context;
    EXPECT_NEAR(pmf.total_mass(), 1.0, 1e-12) << context;
    for (std::size_t i = 0; i < pmf.support_size(); ++i) {
      EXPECT_GT(pmf.entries()[i].probability, 0.0) << context;
      if (i > 0) {
        EXPECT_LT(pmf.entries()[i - 1].value, pmf.entries()[i].value)
            << context;
      }
    }
    // The worst-case point is the entry the simulators' worse_error
    // total order selects from the support.
    std::int64_t worst = 0;
    for (const ErrorPmf::Entry& entry : pmf.entries()) {
      if (sealpaa::sim::worse_error(entry.value, worst)) worst = entry.value;
    }
    EXPECT_EQ(pmf.worst_case_error(), worst) << context;
  }
}

TEST(ErrorPmf, JointSegmentMassesStayNormalizedMidPropagation) {
  sealpaa::prob::SplitMix64 cell_rng(0x70f'0000'0003ULL);
  sealpaa::prob::Xoshiro256StarStar profile_rng(0x70f'0000'0004ULL);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t width = 4 + static_cast<std::size_t>(trial % 13);
    const std::vector<AdderCell> stages = random_chain(cell_rng, width, trial);
    const InputProfile profile =
        InputProfile::random(width, profile_rng, 0.05, 0.95);
    ErrorPmfState state =
        sealpaa::analysis::make_error_pmf_state(profile.p_cin());
    for (std::size_t i = 0; i < width; ++i) {
      sealpaa::analysis::advance_error_pmf(state, stages[i], profile.p_a(i),
                                           profile.p_b(i));
      double mass = 0.0;
      for (const ErrorPmf& segment : state.joint) {
        mass += segment.total_mass();
      }
      EXPECT_NEAR(mass, 1.0, 1e-12)
          << "trial " << trial << " after stage " << i;
    }
  }
}

TEST(ErrorPmf, OutOfPlaceAdvanceMatchesInPlaceBitForBit) {
  sealpaa::prob::SplitMix64 cell_rng(0x70f'0000'0010ULL);
  sealpaa::prob::Xoshiro256StarStar profile_rng(0x70f'0000'0011ULL);
  // Random cells on the low 12 bits, AccuFA above: a random chain's
  // support roughly doubles per stage (5M points at width 20), while
  // the approximate-low-bits layout keeps widths up to 20 cheap.
  constexpr std::size_t kApproxBits = 12;
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t width = 4 + static_cast<std::size_t>(trial) * 4;
    std::vector<AdderCell> stages =
        random_chain(cell_rng, std::min(width, kApproxBits), trial);
    stages.resize(width, sealpaa::adders::accurate());
    const InputProfile profile =
        InputProfile::random(width, profile_rng, 0.05, 0.95);
    ErrorPmfState in_place =
        sealpaa::analysis::make_error_pmf_state(profile.p_cin());
    ErrorPmfState from = in_place;
    for (std::size_t i = 0; i < width; ++i) {
      const std::string context = "trial " + std::to_string(trial) +
                                  " width " + std::to_string(width) +
                                  " stage " + std::to_string(i);
      const ErrorPmfState source = from;
      // A stale, unrelated destination: the advance must replace it.
      ErrorPmfState into = sealpaa::analysis::make_error_pmf_state(0.5);
      sealpaa::analysis::advance_error_pmf(from, stages[i], profile.p_a(i),
                                           profile.p_b(i), into);
      sealpaa::analysis::advance_error_pmf(in_place, stages[i],
                                           profile.p_a(i), profile.p_b(i));
      ASSERT_EQ(into.stage, in_place.stage) << context;
      for (std::size_t j = 0; j < 4; ++j) {
        expect_same_entries(into.joint[j], in_place.joint[j],
                            context + " segment " + std::to_string(j));
        expect_same_entries(from.joint[j], source.joint[j],
                            context + " source segment " + std::to_string(j));
      }
      EXPECT_EQ(from.stage, source.stage) << context;
      from = std::move(into);
    }
  }
  ErrorPmfState state = sealpaa::analysis::make_error_pmf_state(0.5);
  EXPECT_THROW(sealpaa::analysis::advance_error_pmf(
                   state, sealpaa::adders::lpaa(1), 0.5, 0.5, state),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Weighted-exhaustive oracle

TEST(ErrorPmf, MatchesWeightedExhaustiveGroundTruth) {
  sealpaa::prob::SplitMix64 cell_rng(0x70f'0000'0005ULL);
  sealpaa::prob::Xoshiro256StarStar profile_rng(0x70f'0000'0006ULL);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t width = 4 + static_cast<std::size_t>(trial % 5);
    const std::vector<AdderCell> stages = random_chain(cell_rng, width, trial);
    const InputProfile profile =
        InputProfile::random(width, profile_rng, 0.05, 0.95);
    const AdderChain chain(stages);
    const std::string context =
        "trial " + std::to_string(trial) + " width " + std::to_string(width);

    const ExhaustiveReport oracle =
        WeightedExhaustive::analyze(chain, profile);
    const ErrorPmf pmf = sealpaa::analysis::propagate_error_pmf(chain, profile);

    expect_close(pmf.error_rate(), 1.0 - oracle.p_value_correct, context);
    expect_close(pmf.probability_of(0), oracle.p_value_correct, context);
    expect_close(pmf.mean_error(), oracle.mean_error, context);
    expect_close(pmf.mean_error_distance(), oracle.mean_abs_error, context);
    expect_close(pmf.mean_squared_error(), oracle.mean_squared_error,
                 context);
    // The oracle accumulates its worst case through the same
    // sim::worse_error total order, signed — must agree exactly.
    EXPECT_EQ(pmf.worst_case_error(), oracle.worst_case_error) << context;

    // Point-by-point: every assignment has positive probability under a
    // (0.05, 0.95) profile, so the supports must coincide exactly.
    ASSERT_EQ(pmf.support_size(), oracle.error_distribution.size()) << context;
    std::size_t i = 0;
    for (const auto& [value, probability] : oracle.error_distribution) {
      EXPECT_EQ(pmf.entries()[i].value, value) << context;
      EXPECT_NEAR(pmf.entries()[i].probability, probability, 1e-12) << context;
      ++i;
    }
  }
}

TEST(ErrorPmf, ExactChainIsPointMassAtZero) {
  const AdderCell& exact = sealpaa::adders::accurate();
  for (std::size_t width : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
    const auto chain = AdderChain::homogeneous(exact, width);
    const InputProfile profile = InputProfile::uniform(width, 0.37);
    const ErrorPmf pmf = sealpaa::analysis::propagate_error_pmf(chain, profile);
    ASSERT_EQ(pmf.support_size(), 1u) << width;
    EXPECT_EQ(pmf.min_value(), 0) << width;
    // All mass sits at 0; the value itself carries the rounding of the
    // per-stage carry-split products, so "within 1e-12", not bitwise.
    EXPECT_NEAR(pmf.probability_of(0), 1.0, 1e-12) << width;
    EXPECT_EQ(pmf.error_rate(), 0.0) << width;
    EXPECT_EQ(pmf.mean_error_distance(), 0.0) << width;
    EXPECT_EQ(pmf.worst_case_error(), 0) << width;
    EXPECT_EQ(pmf.entropy_bits(), 0.0) << width;
    EXPECT_TRUE(std::isinf(pmf.psnr_db(width))) << width;
  }
}

// ---------------------------------------------------------------------------
// Representation switchovers

TEST(ErrorPmf, DenseAndSparseMixturePathsAreBitIdentical) {
  sealpaa::prob::SplitMix64 cell_rng(0x70f'0000'0007ULL);
  sealpaa::prob::Xoshiro256StarStar profile_rng(0x70f'0000'0008ULL);
  PmfOptions sparse_only;
  sparse_only.dense_threshold = 0;  // forbid the dense accumulator
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t width = 4 + static_cast<std::size_t>(trial % 9);
    const std::vector<AdderCell> stages = random_chain(cell_rng, width, trial);
    const InputProfile profile =
        InputProfile::random(width, profile_rng, 0.05, 0.95);
    const AdderChain chain(stages);
    const ErrorPmf dense =
        sealpaa::analysis::propagate_error_pmf(chain, profile);
    const ErrorPmf sparse =
        sealpaa::analysis::propagate_error_pmf(chain, profile, sparse_only);
    expect_same_entries(sparse, dense, "trial " + std::to_string(trial));
  }
}

TEST(ErrorPmf, ConvolveFftPathMatchesExactProduct) {
  sealpaa::prob::Xoshiro256StarStar rng(0x70f'0000'0009ULL);
  for (int trial = 0; trial < 10; ++trial) {
    ErrorPmf::Entries a_entries;
    ErrorPmf::Entries b_entries;
    for (int i = 0; i < 48; ++i) {
      a_entries.push_back(
          {static_cast<std::int64_t>(rng.next() % 600) - 300,
           rng.uniform01()});
      b_entries.push_back(
          {static_cast<std::int64_t>(rng.next() % 400) - 200,
           rng.uniform01()});
    }
    const ErrorPmf a = ErrorPmf::from_entries(a_entries);
    const ErrorPmf b = ErrorPmf::from_entries(b_entries);

    PmfOptions naive_only;
    naive_only.fft_threshold = std::numeric_limits<std::size_t>::max();
    PmfOptions fft_always;
    fft_always.fft_threshold = 1;

    const ErrorPmf exact = ErrorPmf::convolve(a, b, naive_only);
    const ErrorPmf fast = ErrorPmf::convolve(a, b, fft_always);
    ASSERT_EQ(fast.support_size(), exact.support_size()) << trial;
    for (std::size_t i = 0; i < exact.support_size(); ++i) {
      EXPECT_EQ(fast.entries()[i].value, exact.entries()[i].value) << trial;
      EXPECT_NEAR(fast.entries()[i].probability, exact.entries()[i].probability,
                  1e-12)
          << trial;
    }
    expect_close(fast.total_mass(), exact.total_mass(),
                 "mass trial " + std::to_string(trial));
  }
}

TEST(ErrorPmf, FromEntriesMergesValidatesAndDropsZeros) {
  const ErrorPmf merged = ErrorPmf::from_entries(
      {{5, 0.25}, {-3, 0.5}, {5, 0.25}, {7, 0.0}});
  ASSERT_EQ(merged.support_size(), 2u);
  EXPECT_EQ(merged.min_value(), -3);
  EXPECT_EQ(merged.max_value(), 5);
  EXPECT_EQ(merged.probability_of(5), 0.5);
  EXPECT_EQ(merged.probability_of(7), 0.0);
  EXPECT_THROW((void)ErrorPmf::from_entries({{1, -0.5}}),
               std::invalid_argument);
}

TEST(ErrorPmf, TopMassPointsOrderByProbabilityThenValue) {
  const ErrorPmf pmf = ErrorPmf::from_entries(
      {{-8, 0.2}, {0, 0.4}, {3, 0.2}, {11, 0.15}, {12, 0.05}});
  const ErrorPmf::Entries top = pmf.top_mass_points(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].value, 0);
  EXPECT_EQ(top[1].value, -8);  // probability tie with +3 → lower value first
  EXPECT_EQ(top[2].value, 3);
  EXPECT_EQ(pmf.top_mass_points(99).size(), pmf.support_size());
}

TEST(ErrorPmf, SupportGuardAndWidthGuardThrow) {
  const auto chain =
      AdderChain::homogeneous(sealpaa::adders::lpaa(1), 8);
  const InputProfile profile = InputProfile::uniform(8, 0.3);
  PmfOptions tiny;
  tiny.max_support = 4;  // LPAA1 at width 8 reaches a 400+-point support
  EXPECT_THROW(
      (void)sealpaa::analysis::propagate_error_pmf(chain, profile, tiny),
      std::length_error);

  ErrorPmfState state = sealpaa::analysis::make_error_pmf_state(0.5);
  state.stage = 62;  // the carry-out weight 2^63 would overflow int64
  EXPECT_THROW(sealpaa::analysis::advance_error_pmf(
                   state, sealpaa::adders::lpaa(1), 0.5, 0.5),
               std::length_error);
}

// ---------------------------------------------------------------------------
// Engine integration

TEST(ErrorPmf, ChainEvaluatorPmfPrefixCacheIsExactAndAccounted) {
  sealpaa::prob::SplitMix64 cell_rng(0x70f'0000'000cULL);
  sealpaa::prob::Xoshiro256StarStar profile_rng(0x70f'0000'000dULL);
  const std::size_t width = 8;
  std::vector<AdderCell> palette;
  for (int c = 0; c < 4; ++c) palette.push_back(random_cell(cell_rng, c));
  const InputProfile profile =
      InputProfile::random(width, profile_rng, 0.05, 0.95);
  ChainEvaluator evaluator(profile, palette);

  sealpaa::prob::SplitMix64 walk_rng(0x70f'0000'000eULL);
  for (int query = 0; query < 40; ++query) {
    std::vector<std::size_t> choices(width);
    std::vector<AdderCell> stages;
    for (std::size_t i = 0; i < width; ++i) {
      choices[i] = walk_rng.next() % palette.size();
      stages.push_back(palette[choices[i]]);
    }
    const ErrorPmf cached = evaluator.error_pmf(choices);
    const ErrorPmf batch =
        sealpaa::analysis::propagate_error_pmf(AdderChain(stages), profile);
    expect_same_entries(cached, batch, "query " + std::to_string(query));
  }
  EXPECT_GT(evaluator.pmf_stats().hits, 0u);
  EXPECT_GT(evaluator.pmf_stats().stages_computed, 0u);
  EXPECT_EQ(evaluator.pmf_stats().chains_evaluated, 40u);
  EXPECT_GT(evaluator.pmf_cache_size(), 0u);
  // A stage budget far below the no-cache cost: 40 full-width chains over
  // a 4-cell palette share prefixes massively.
  EXPECT_LT(evaluator.pmf_stats().stages_computed, 40u * width);

  // Identical repeat query: answered entirely from the cache.
  const std::vector<std::size_t> probe(width, 0);
  (void)evaluator.error_pmf(probe);
  const auto hits_before = evaluator.pmf_stats().hits;
  const auto stages_before = evaluator.pmf_stats().stages_computed;
  (void)evaluator.error_pmf(probe);
  EXPECT_GT(evaluator.pmf_stats().hits, hits_before);
  EXPECT_EQ(evaluator.pmf_stats().stages_computed, stages_before);

  evaluator.clear();
  EXPECT_EQ(evaluator.pmf_cache_size(), 0u);
  EXPECT_EQ(evaluator.cache_size(), 0u);
}

TEST(ErrorPmf, ChainEvaluatorPartialPrefixMatchesPartialChain) {
  // error_pmf on a k-stage prefix equals the batch propagation of the
  // k-stage chain under the truncated profile.
  sealpaa::prob::SplitMix64 cell_rng(0x70f'0000'000fULL);
  const std::size_t width = 8;
  std::vector<AdderCell> palette;
  for (int c = 0; c < 3; ++c) palette.push_back(random_cell(cell_rng, c));
  const InputProfile profile = InputProfile::uniform(width, 0.42);
  ChainEvaluator evaluator(profile, palette);

  const std::vector<std::size_t> prefix{0, 1, 2, 1};
  std::vector<AdderCell> stages;
  for (const std::size_t c : prefix) stages.push_back(palette[c]);
  const InputProfile truncated = InputProfile::uniform(prefix.size(), 0.42);
  const ErrorPmf batch = sealpaa::analysis::propagate_error_pmf(
      AdderChain(stages), truncated);
  expect_same_entries(evaluator.error_pmf(prefix), batch, "prefix of 4");
}

}  // namespace
