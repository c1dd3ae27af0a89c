// Parameterized GeAr sweep: every valid (N, R, P) configuration up to
// N = 9 is checked against exhaustive simulation, for both the error
// DP and the correction-cycle distribution.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "sealpaa/gear/correction.hpp"
#include "sealpaa/gear/gear.hpp"
#include "sealpaa/multibit/input_profile.hpp"

namespace {

using sealpaa::gear::correction_cycle_distribution;
using sealpaa::gear::GearAnalyzer;
using sealpaa::gear::GearConfig;
using sealpaa::gear::GearCorrector;
using sealpaa::multibit::InputProfile;

std::vector<GearConfig> all_valid_configs(int max_n) {
  std::vector<GearConfig> configs;
  for (int n = 2; n <= max_n; ++n) {
    for (int r = 1; r <= n; ++r) {
      for (int p = 0; r + p <= n; ++p) {
        if ((n - (r + p)) % r != 0) continue;
        const GearConfig config(n, r, p);
        if (config.blocks() < 2) continue;  // single block = exact
        configs.push_back(config);
      }
    }
  }
  return configs;
}

const std::vector<GearConfig>& sweep_configs() {
  static const std::vector<GearConfig> configs = all_valid_configs(9);
  return configs;
}

/// The parameter is an index into sweep_configs(), so the instance names
/// (".../<index>") stay stable as long as the enumeration order does.
class GearConfigSweep : public ::testing::TestWithParam<int> {};

TEST_P(GearConfigSweep, ErrorDpMatchesExhaustive) {
  const GearConfig& config =
      sweep_configs()[static_cast<std::size_t>(GetParam())];
  const auto profile = InputProfile::uniform(
      static_cast<std::size_t>(config.n()), 0.5);
  const auto analysis = GearAnalyzer::analyze(config, profile);
  const auto metrics = GearAnalyzer::exhaustive(config);
  EXPECT_NEAR(analysis.p_error_exact_dp, metrics.error_rate(), 1e-12)
      << config.describe();
}

TEST_P(GearConfigSweep, CorrectionDistributionMatchesExhaustive) {
  const GearConfig& config =
      sweep_configs()[static_cast<std::size_t>(GetParam())];
  const std::size_t n = static_cast<std::size_t>(config.n());
  const GearCorrector corrector(config);
  std::map<int, std::uint64_t> histogram;
  const std::uint64_t limit = 1ULL << n;
  for (std::uint64_t a = 0; a < limit; ++a) {
    for (std::uint64_t b = 0; b < limit; ++b) {
      histogram[static_cast<int>(corrector.detect(a, b).size())]++;
    }
  }
  const auto distribution =
      correction_cycle_distribution(config, InputProfile::uniform(n, 0.5));
  const double total =
      static_cast<double>(limit) * static_cast<double>(limit);
  for (std::size_t c = 0; c < distribution.size(); ++c) {
    EXPECT_NEAR(distribution[c],
                static_cast<double>(histogram[static_cast<int>(c)]) / total,
                1e-12)
        << config.describe() << " cycles=" << c;
  }
}

// Exactly one instance per valid config: no index is out of range.
INSTANTIATE_TEST_SUITE_P(
    AllConfigs, GearConfigSweep,
    ::testing::Range(0, static_cast<int>(sweep_configs().size())));

}  // namespace
