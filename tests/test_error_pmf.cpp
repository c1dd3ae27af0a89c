// The analytic error-PMF propagation contract (analysis/error_pmf.*):
//
//  * the propagated distribution is a true PMF — mass 1 within 1e-12,
//    strictly sorted support, positive probabilities — over 200+
//    randomized hybrid chains at widths 4..16;
//  * MED/MSE/WCE/error-rate and the full point-by-point distribution
//    match the weighted-exhaustive oracle (2^(2N+1) enumeration);
//  * an exact chain collapses to the point mass at 0;
//  * folding a trailing run of exact cells into the finalize matches a
//    stage-by-stage propagation (same support and WCE, MED/MSE within
//    1e-14) for every exact-suffix length, and the 62-stage rail stays
//    on the chain width;
//  * the dense and sparse mixture accumulators are bit-identical, the
//    k-way merge matches from_entries() over the gathered contributions
//    bit for bit, and convolve()'s FFT path agrees with the exact naive
//    product;
//  * hex-pinned p_success/MED/MSE of a med branch-and-bound search and
//    three analytic-pmf chains catch any change of summation order;
//  * the engine integration (the ChainEvaluator PMF prefix cache)
//    reproduces the batch propagation exactly while accounting its cache
//    traffic.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
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
#include "sealpaa/engine/method.hpp"
#include "sealpaa/explore/branch_bound.hpp"
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
// Exact-suffix fold

/// The propagation without the fold: advances through every stage, the
/// trailing exact ones included, and finalizes after the last.
ErrorPmf propagate_every_stage(const std::vector<AdderCell>& stages,
                               const InputProfile& profile) {
  ErrorPmfState state =
      sealpaa::analysis::make_error_pmf_state(profile.p_cin());
  for (std::size_t i = 0; i < stages.size(); ++i) {
    sealpaa::analysis::advance_error_pmf(state, stages[i], profile.p_a(i),
                                         profile.p_b(i));
  }
  return sealpaa::analysis::finalize_error_pmf(state);
}

/// |got - want| <= 1e-14 |want|: the fold drops the exact stages'
/// mixtures, so moments may move in their last bits, no further.
void expect_within_1e14(double got, double want, const std::string& context) {
  EXPECT_LE(std::abs(got - want), 1e-14 * std::abs(want))
      << context << ": " << got << " vs " << want;
}

TEST(ErrorPmf, FoldedExactSuffixMatchesStageByStagePropagation) {
  sealpaa::prob::SplitMix64 cell_rng(0x70f'0000'0013ULL);
  sealpaa::prob::Xoshiro256StarStar profile_rng(0x70f'0000'0014ULL);
  int all_exact = 0;
  for (int trial = 0; trial < 224; ++trial) {
    // Every width 1..14 meets every exact-suffix length 0..width; random
    // cells cover at most the low 10 bits so the supports stay small.
    const std::size_t width = 1 + static_cast<std::size_t>(trial % 14);
    const std::size_t suffix =
        std::max(static_cast<std::size_t>(trial / 14) % (width + 1),
                 width > 10 ? width - 10 : std::size_t{0});
    std::vector<AdderCell> stages =
        random_chain(cell_rng, width - suffix, trial);
    stages.resize(width, sealpaa::adders::accurate());
    const InputProfile profile =
        InputProfile::random(width, profile_rng, 0.05, 0.95);
    const std::string context = "trial " + std::to_string(trial) + " width " +
                                std::to_string(width) + " exact suffix " +
                                std::to_string(suffix);

    const ErrorPmf folded =
        sealpaa::analysis::propagate_error_pmf(AdderChain(stages), profile);
    const ErrorPmf reference = propagate_every_stage(stages, profile);
    ASSERT_EQ(folded.support_size(), reference.support_size()) << context;
    for (std::size_t i = 0; i < reference.support_size(); ++i) {
      EXPECT_EQ(folded.entries()[i].value, reference.entries()[i].value)
          << context << " point " << i;
    }
    EXPECT_EQ(folded.worst_case_error(), reference.worst_case_error())
        << context;
    expect_within_1e14(folded.mean_error_distance(),
                       reference.mean_error_distance(), context + " MED");
    expect_within_1e14(folded.mean_squared_error(),
                       reference.mean_squared_error(), context + " MSE");
    EXPECT_NEAR(folded.total_mass(), 1.0, 1e-12) << context;
    if (suffix == width) {
      ++all_exact;
      ASSERT_EQ(folded.support_size(), 1u) << context;
      EXPECT_EQ(folded.min_value(), 0) << context;
      EXPECT_NEAR(folded.probability_of(0), 1.0, 1e-15) << context;
    }
  }
  EXPECT_GE(all_exact, 14);
}

TEST(ErrorPmf, ExactMethodsOnExactTailsMatchWeightedExhaustive) {
  using sealpaa::engine::Method;
  sealpaa::prob::SplitMix64 cell_rng(0x70f'0000'0015ULL);
  sealpaa::prob::Xoshiro256StarStar profile_rng(0x70f'0000'0016ULL);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t width = 2 + static_cast<std::size_t>(trial % 6) * 2;
    const std::size_t suffix = static_cast<std::size_t>(trial) % (width + 1);
    std::vector<AdderCell> stages =
        random_chain(cell_rng, width - suffix, trial);
    stages.resize(width, sealpaa::adders::accurate());
    const AdderChain chain(stages);
    // Uniform 0.5 admits the exhaustive simulator as a second oracle.
    const bool uniform = trial % 2 == 0;
    const InputProfile profile =
        uniform ? InputProfile::uniform(width, 0.5)
                : InputProfile::random(width, profile_rng, 0.05, 0.95);
    const std::string context = "trial " + std::to_string(trial) + " width " +
                                std::to_string(width) + " exact suffix " +
                                std::to_string(suffix);

    const auto oracle =
        sealpaa::engine::evaluate(chain, profile, Method::kWeightedExhaustive);
    const auto pmf =
        sealpaa::engine::evaluate(chain, profile, Method::kAnalyticPmf);
    ASSERT_TRUE(oracle.distribution.has_value()) << context;
    ASSERT_TRUE(pmf.distribution.has_value()) << context;
    const auto& want = *oracle.distribution;
    const auto& got = *pmf.distribution;
    expect_close(got.error_rate, want.error_rate, context + " error rate");
    expect_close(got.mean_error, want.mean_error, context + " mean error");
    expect_close(got.mean_error_distance, want.mean_error_distance,
                 context + " MED");
    expect_close(got.mean_squared_error, want.mean_squared_error,
                 context + " MSE");
    EXPECT_EQ(got.worst_case_error, want.worst_case_error) << context;

    std::vector<Method> exact = {Method::kRecursive,
                                 Method::kInclusionExclusion,
                                 Method::kAnalyticPmf};
    if (uniform) exact.push_back(Method::kExhaustiveSim);
    for (const Method method : exact) {
      const auto evaluation = sealpaa::engine::evaluate(chain, profile, method);
      expect_close(evaluation.p_error, oracle.p_error,
                   context + " p_error of " +
                       std::string(sealpaa::engine::method_name(method)));
    }
  }
}

// ---------------------------------------------------------------------------
// Representation switchovers

// Compares default options, where each mixture picks dense or merge by
// cost, with merge-only (dense_threshold = 0).  The default side takes
// the dense accumulator only on the mixtures whose span is narrow for
// their entries and the merge on the rest, so this is not a full dense
// against merge comparison.  The narrow-span trials of
// MixtureMatchesFromEntriesOracleBitForBit are what pin the dense path
// to the merge's order.
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

TEST(ErrorPmf, MixtureMatchesFromEntriesOracleBitForBit) {
  // Clustered term sets: every point sits at +-2^k plus a small jitter
  // (sparse spans, the k-way merge's regime) or, in every third trial,
  // within a few values of 0 (dense spans).  Offsets come from a small
  // set so different terms land on the same values; zero scales, null
  // and empty PMFs must drop out.  The oracle gathers the contributions
  // in term order, and from_entries' stable sort and compensated run
  // sums define the order a mixture must add them in.
  sealpaa::prob::Xoshiro256StarStar rng(0x70f'0000'000aULL);
  PmfOptions merge_only;
  merge_only.dense_threshold = 0;  // forbid the dense accumulator
  const auto draw = [&rng](std::uint64_t bound) {
    return rng.next() % bound;
  };
  // Masses spread over 2^-60..1: a compensated sum of such addends
  // depends on their order, so a tie taken out of term order shows.
  const auto mass = [&] {
    return std::ldexp(rng.uniform01(), -static_cast<int>(draw(61)));
  };
  for (int trial = 0; trial < 300; ++trial) {
    const bool narrow = trial % 3 == 2;
    std::vector<ErrorPmf> pool;
    const std::size_t pool_size = 1 + draw(3);
    for (std::size_t p = 0; p < pool_size; ++p) {
      ErrorPmf::Entries entries;
      const std::size_t points = draw(13);  // 0 gives an empty PMF
      for (std::size_t i = 0; i < points; ++i) {
        const auto jitter = static_cast<std::int64_t>(draw(3));
        std::int64_t value = jitter;
        if (narrow) {
          value -= 1;
        } else {
          const std::int64_t magnitude = std::int64_t{1} << draw(20);
          value += draw(2) == 0 ? magnitude : -magnitude;
        }
        entries.push_back({value, mass()});
      }
      pool.push_back(ErrorPmf::from_entries(entries));
    }
    const std::array<std::int64_t, 4> offsets =
        narrow ? std::array<std::int64_t, 4>{0, 1, -1, 2}
               : std::array<std::int64_t, 4>{0, 4, -(std::int64_t{1} << 10),
                                             std::int64_t{1} << 12};
    const std::size_t term_count = 1 + draw(40);
    std::vector<ErrorPmf::Term> terms;
    ErrorPmf::Entries gathered;
    for (std::size_t t = 0; t < term_count; ++t) {
      const ErrorPmf* pmf = draw(12) == 0 ? nullptr : &pool[draw(pool_size)];
      const double scale = draw(8) == 0 ? 0.0 : mass();
      const std::int64_t offset = offsets[draw(offsets.size())];
      terms.push_back(ErrorPmf::Term{pmf, scale, offset});
      if (pmf == nullptr || scale == 0.0) continue;
      for (const ErrorPmf::Entry& entry : pmf->entries()) {
        gathered.push_back({entry.value + offset, scale * entry.probability});
      }
    }
    const ErrorPmf want = ErrorPmf::from_entries(gathered);
    const std::string context = "trial " + std::to_string(trial);
    expect_same_entries(ErrorPmf::mixture(terms), want, context);
    expect_same_entries(ErrorPmf::mixture(terms, merge_only), want,
                        context + " merge only");
  }
}

TEST(ErrorPmf, MixtureAddsTiedContributionsInTermOrder) {
  // A compensated sum is order-independent for almost all addends, so
  // random term sets rarely see a tie taken out of order.  These three
  // contributions to one value were found by search: in term order they
  // sum to 1 + 2^-52, in reverse order to 1.  Alone they span one value
  // (dense path); a far point makes the span sparse (merge path).
  const ErrorPmf near = ErrorPmf::point_mass(5);
  const ErrorPmf far = ErrorPmf::point_mass(std::int64_t{1} << 20, 0.5);
  std::vector<ErrorPmf::Term> terms = {{&near, 0x1.8p-1, 0},
                                       {&near, 0x1.0000000000001p-54, 0},
                                       {&near, 0x1.0000000000001p-2, 0}};
  PmfOptions merge_only;
  merge_only.dense_threshold = 0;
  for (int sparse = 0; sparse < 2; ++sparse) {
    if (sparse == 1) terms.push_back({&far, 1.0, 0});
    for (const PmfOptions& options : {PmfOptions{}, merge_only}) {
      EXPECT_EQ(ErrorPmf::mixture(terms, options).probability_of(5),
                0x1.0000000000001p+0)
          << "sparse " << sparse;
    }
  }
}

TEST(ErrorPmf, PinnedBitsOfMedSearchAndAnalyticChains) {
  // Recorded before the k-way merge replaced the sort path: any change
  // to the order a mixture adds its contributions in moves these bits.
  const auto skewed = [](std::size_t width) {
    std::vector<double> p_a;
    std::vector<double> p_b;
    for (std::size_t i = 0; i < width; ++i) {
      p_a.push_back(0.10 + 0.08 * static_cast<double>(i % 10));
      p_b.push_back(0.90 - 0.07 * static_cast<double>(i % 10));
    }
    return InputProfile(p_a, p_b, 0.25);
  };

  // bench_bnb's med leg: width 10 over {AccuFA, LPAA2, LPAA3} under a
  // budget that leaves four stages to the approximate cells.
  sealpaa::explore::DesignConstraints budget;
  budget.max_power_nw = 1385.0 * 6 + 198.0 * 4;
  sealpaa::explore::BnbOptions one_thread;
  one_thread.threads = 1;
  const sealpaa::explore::BnbResult med =
      sealpaa::explore::BranchBoundOptimizer::optimize(
          skewed(10),
          std::vector<AdderCell>{sealpaa::adders::accurate(),
                                 sealpaa::adders::lpaa(2),
                                 sealpaa::adders::lpaa(3)},
          budget, sealpaa::explore::Objective::kMed, one_thread);
  ASSERT_TRUE(med.complete);
  ASSERT_EQ(med.design.stages.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(med.design.stages[i].name(), i < 4 ? "LPAA3" : "AccuFA") << i;
  }
  EXPECT_EQ(med.design.p_success, 0x1.d0ec0de95684bp-4);
  ASSERT_TRUE(med.design.med.has_value());
  ASSERT_TRUE(med.design.mse.has_value());
  EXPECT_EQ(*med.design.med, 0x1.f12bec630084cp+1);
  EXPECT_EQ(*med.design.mse, 0x1.bd2301fa9140bp+4);

  struct Pinned {
    const char* name;
    AdderChain chain;
    InputProfile profile;
    double p_success;
    double med;
    double mse;
  };
  std::vector<AdderCell> hybrid(3, sealpaa::adders::lpaa(5));
  hybrid.push_back(sealpaa::adders::lpaa(2));
  hybrid.insert(hybrid.end(), 10, sealpaa::adders::accurate());
  std::vector<AdderCell> mixed;
  for (int s = 0; s < 8; ++s) mixed.push_back(sealpaa::adders::lpaa(1 + s % 7));
  const std::vector<Pinned> chains = {
      {"w14 LPAA5x3,LPAA2,AccuFAx10", AdderChain(hybrid), skewed(14),
       0x1.4e8618214dc77p-2, 0x1.3b58f83ec0852p+1, 0x1.96fa076d8797fp+3},
      {"w14 all LPAA3",
       AdderChain::homogeneous(sealpaa::adders::lpaa(3), 14),
       InputProfile::uniform(14, 0.42), 0x1.b7f2ebaeb6303p-10,
       0x1.389709910aedcp+12, 0x1.440a8eaf08eccp+25},
      {"w8 LPAA1..7,LPAA1", AdderChain(mixed), InputProfile::uniform(8, 0.42),
       0x1.4e769d9417866p-5, 0x1.1481efc9ce9f8p+6, 0x1.f13b829205dc4p+12},
  };
  for (const Pinned& pinned : chains) {
    const sealpaa::engine::Evaluation evaluation = sealpaa::engine::evaluate(
        pinned.chain, pinned.profile, sealpaa::engine::Method::kAnalyticPmf);
    ASSERT_TRUE(evaluation.distribution.has_value()) << pinned.name;
    EXPECT_EQ(evaluation.p_success, pinned.p_success) << pinned.name;
    EXPECT_EQ(evaluation.distribution->mean_error_distance, pinned.med)
        << pinned.name;
    EXPECT_EQ(evaluation.distribution->mean_squared_error, pinned.mse)
        << pinned.name;
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

  // The rail is on the chain width: a width-63 chain throws even when
  // its exact tail would fold the propagation down to a few stages.
  std::vector<AdderCell> tail(2, sealpaa::adders::lpaa(3));
  tail.resize(63, sealpaa::adders::accurate());
  for (const AdderChain& wide :
       {AdderChain(tail),
        AdderChain::homogeneous(sealpaa::adders::accurate(), 63)}) {
    EXPECT_THROW((void)sealpaa::analysis::propagate_error_pmf(
                     wide, InputProfile::uniform(63, 0.5)),
                 std::length_error);
  }
  tail.pop_back();
  EXPECT_EQ(sealpaa::analysis::propagate_error_pmf(
                AdderChain(tail), InputProfile::uniform(62, 0.5))
                .worst_case_error(),
            sealpaa::analysis::propagate_error_pmf(
                AdderChain(std::vector<AdderCell>(tail.begin(),
                                                  tail.begin() + 3)),
                InputProfile::uniform(3, 0.5))
                .worst_case_error());
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
