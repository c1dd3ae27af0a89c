// Unit tests for the probability/statistics substrate.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <set>
#include <stdexcept>

#include "sealpaa/prob/kahan.hpp"
#include "sealpaa/prob/probability.hpp"
#include "sealpaa/prob/rng.hpp"
#include "sealpaa/prob/stats.hpp"

namespace {

using sealpaa::prob::KahanSum;
using sealpaa::prob::Probability;
using sealpaa::prob::RunningStats;
using sealpaa::prob::SplitMix64;
using sealpaa::prob::Xoshiro256StarStar;

TEST(Probability, ValidRangeAccepted) {
  EXPECT_DOUBLE_EQ(Probability(0.0).value(), 0.0);
  EXPECT_DOUBLE_EQ(Probability(1.0).value(), 1.0);
  EXPECT_DOUBLE_EQ(Probability(0.37).value(), 0.37);
}

TEST(Probability, OutOfRangeRejected) {
  EXPECT_THROW(Probability(-0.1), std::domain_error);
  EXPECT_THROW(Probability(1.1), std::domain_error);
  EXPECT_THROW(Probability(std::nan("")), std::domain_error);
}

TEST(Probability, SlackBandClamped) {
  // Values just outside [0,1] from rounding are clamped, not rejected.
  EXPECT_DOUBLE_EQ(Probability(-1e-12).value(), 0.0);
  EXPECT_DOUBLE_EQ(Probability(1.0 + 1e-12).value(), 1.0);
}

TEST(Probability, ComplementAndProduct) {
  const Probability p(0.25);
  EXPECT_DOUBLE_EQ(p.complement().value(), 0.75);
  EXPECT_DOUBLE_EQ((p * Probability(0.5)).value(), 0.125);
  EXPECT_DOUBLE_EQ(Probability::half().value(), 0.5);
}

TEST(Probability, ComparisonOperators) {
  EXPECT_TRUE(Probability(0.2) < Probability(0.3));
  EXPECT_TRUE(Probability(0.2) <= Probability(0.2));
  EXPECT_TRUE(Probability(0.2) == Probability(0.2));
  EXPECT_FALSE(Probability(0.4) < Probability(0.3));
  EXPECT_DOUBLE_EQ(Probability::zero().value(), 0.0);
  EXPECT_DOUBLE_EQ(Probability::one().value(), 1.0);
  EXPECT_DOUBLE_EQ(Probability::unchecked(0.77).value(), 0.77);
}

TEST(RequireProbability, MessageNamesTheContext) {
  try {
    (void)sealpaa::prob::require_probability(2.0, "P(A)");
    FAIL() << "expected throw";
  } catch (const std::domain_error& e) {
    EXPECT_NE(std::string(e.what()).find("P(A)"), std::string::npos);
  }
}

TEST(Kahan, RecoversSmallAddendsLostToNaiveSummation) {
  KahanSum sum;
  double naive = 0.0;
  sum.add(1.0);
  naive += 1.0;
  for (int i = 0; i < 10'000'000; ++i) {
    sum.add(1e-17);
    naive += 1e-17;
  }
  // Naive summation loses all the tiny addends entirely.
  EXPECT_DOUBLE_EQ(naive, 1.0);
  EXPECT_NEAR(sum.value(), 1.0 + 1e-10, 1e-14);
}

TEST(Kahan, NeumaierHandlesAddendLargerThanSum) {
  KahanSum sum;
  sum.add(1.0);
  sum.add(1e100);
  sum.add(1.0);
  sum.add(-1e100);
  EXPECT_DOUBLE_EQ(sum.value(), 2.0);
}

TEST(Kahan, ResetClearsState) {
  KahanSum sum;
  sum.add(5.0);
  sum.reset();
  EXPECT_DOUBLE_EQ(sum.value(), 0.0);
}

TEST(SplitMix, KnownSequenceIsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro, DeterministicForSeed) {
  Xoshiro256StarStar a(123);
  Xoshiro256StarStar b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro, DifferentSeedsDiverge) {
  Xoshiro256StarStar a(1);
  Xoshiro256StarStar b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next() == b.next() ? 1 : 0;
  EXPECT_LT(equal, 2);
}

TEST(Xoshiro, Uniform01InHalfOpenInterval) {
  Xoshiro256StarStar rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Xoshiro, BernoulliFrequencyTracksP) {
  Xoshiro256StarStar rng(99);
  const double p = 0.3;
  int hits = 0;
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) hits += rng.bernoulli(p) ? 1 : 0;
  const double frequency = static_cast<double>(hits) / trials;
  EXPECT_NEAR(frequency, p, 0.005);
}

TEST(Xoshiro, JumpProducesDisjointStream) {
  Xoshiro256StarStar a(5);
  Xoshiro256StarStar b(5);
  b.jump();
  std::set<std::uint64_t> first;
  for (int i = 0; i < 1000; ++i) first.insert(a.next());
  int collisions = 0;
  for (int i = 0; i < 1000; ++i) collisions += first.count(b.next()) != 0;
  EXPECT_EQ(collisions, 0);
}

TEST(Xoshiro, StreamIsPinned) {
  // Every seeded Monte Carlo figure depends on this exact stream, so the
  // first outputs of two seeds, fresh and after one jump(), are pinned.
  struct Pin {
    std::uint64_t seed;
    std::array<std::uint64_t, 8> fresh;
    std::array<std::uint64_t, 8> jumped;
  };
  const Pin pins[] = {
      {0,
       {0x99ec5f36cb75f2b4ULL, 0xbf6e1f784956452aULL, 0x1a5f849d4933e6e0ULL,
        0x6aa594f1262d2d2cULL, 0xbba5ad4a1f842e59ULL, 0xffef8375d9ebcacaULL,
        0x6c160deed2f54c98ULL, 0x8920ad648fc30a3fULL},
       {0x376215edc846d62cULL, 0x57c0611de8350ca7ULL, 0xbc46a3515afee385ULL,
        0x06c27b341aca7b26ULL, 0x2d2d68024469b89eULL, 0xfd4c3ae46ca64165ULL,
        0xed7442d7ebee7731ULL, 0x0d9bf858091c1913ULL}},
      {0x5ea1'c0de'2017'dacULL,
       {0x2d508d3499d35bebULL, 0x3c1817c84032afcdULL, 0x3efa24da6fbadd75ULL,
        0x8208a4afa27e944bULL, 0xf6584e1de95dd385ULL, 0x20a75d71d04b20b0ULL,
        0x9f5ca486de65e696ULL, 0x769e609a3a606912ULL},
       {0xcee7aa6ce985bb5dULL, 0x7f9bbd8f12ff01f2ULL, 0x568b5ff6185972a3ULL,
        0xbd83df83d4182dd3ULL, 0xd44e30c64024e4baULL, 0x3edd6d636e97e1b5ULL,
        0xd7dabc11e737baecULL, 0xd3ff2aa958c1c3e9ULL}},
  };
  for (const Pin& pin : pins) {
    Xoshiro256StarStar fresh(pin.seed);
    Xoshiro256StarStar jumped(pin.seed);
    jumped.jump();
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(fresh.next(), pin.fresh[i])
          << "seed " << pin.seed << " #" << i;
      EXPECT_EQ(jumped.next(), pin.jumped[i])
          << "seed " << pin.seed << " after jump #" << i;
    }
  }
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(RunningStats, SingleSampleHasZeroVariance) {
  RunningStats stats;
  stats.add(3.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.stddev(), 0.0);
}

TEST(Wilson, CoversTrueProportion) {
  // 300 successes in 1000 trials: interval must contain 0.3.
  const auto ci = sealpaa::prob::wilson_interval(300, 1000, 1.96);
  EXPECT_TRUE(ci.contains(0.3));
  EXPECT_GT(ci.low, 0.25);
  EXPECT_LT(ci.high, 0.35);
}

TEST(Wilson, DegenerateCases) {
  // Zero trials carry no information: the interval is explicitly empty,
  // not the fake-but-plausible [0, 1].
  const auto empty = sealpaa::prob::wilson_interval(0, 0, 1.96);
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(empty.contains(0.5));
  const auto zero = sealpaa::prob::wilson_interval(0, 100, 1.96);
  EXPECT_FALSE(zero.empty());
  EXPECT_DOUBLE_EQ(zero.low, 0.0);
  EXPECT_GT(zero.high, 0.0);
  const auto all = sealpaa::prob::wilson_interval(100, 100, 1.96);
  EXPECT_DOUBLE_EQ(all.high, 1.0);
}

TEST(Wilson, RejectsMoreSuccessesThanTrials) {
  EXPECT_THROW((void)sealpaa::prob::wilson_interval(5, 4, 1.96),
               std::invalid_argument);
}

TEST(Interval, EmptyIntervalSemantics) {
  const auto empty = sealpaa::prob::Interval::empty_interval();
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(empty.contains(0.0));
  EXPECT_FALSE(empty.contains(1.0));
  const sealpaa::prob::Interval point{0.5, 0.5};
  EXPECT_FALSE(point.empty());
  EXPECT_TRUE(point.contains(0.5));
}

TEST(BinomialStderr, ShrinksWithSamples) {
  const double se_small = sealpaa::prob::binomial_stderr(0.5, 100);
  const double se_large = sealpaa::prob::binomial_stderr(0.5, 10000);
  EXPECT_NEAR(se_small, 0.05, 1e-12);
  EXPECT_NEAR(se_large, 0.005, 1e-12);
}

}  // namespace
