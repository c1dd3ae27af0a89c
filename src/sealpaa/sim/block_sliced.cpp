#include "sealpaa/sim/block_sliced.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sealpaa/sim/bitsliced.hpp"
#include "sealpaa/sim/lane_sampler.hpp"

namespace sealpaa::sim {

BlockSlicedKernel::BlockSlicedKernel(multibit::BlockChainSpec spec)
    : spec_(std::move(spec)) {}

BlockSlicedKernel::Result BlockSlicedKernel::run_packed(
    const std::uint64_t* a_words, const std::uint64_t* b_words,
    std::uint64_t cin_word, std::uint64_t lane_mask) const noexcept {
  const int n = spec_.n();
  // Rows 0..n-1 hold the sum bits, row n the carry-out; rows above stay
  // zero so the plane transpose yields the numeric value() per lane.
  std::array<std::uint64_t, 64> approx_plane{};
  std::array<std::uint64_t, 64> exact_plane{};

  std::uint64_t carry = cin_word;
  for (int j = 0; j < n; ++j) {
    const std::uint64_t a = a_words[j];
    const std::uint64_t b = b_words[j];
    exact_plane[static_cast<std::size_t>(j)] = a ^ b ^ carry;
    carry = (a & b) | (carry & (a | b));
  }
  exact_plane[static_cast<std::size_t>(n)] = carry;

  for (int i = 0; i < spec_.block_count(); ++i) {
    const int first_result = spec_.result_start(i);
    const int end = spec_.result_end(i);
    carry = i == 0 ? cin_word : 0;
    for (int j = spec_.window_start(i); j < end; ++j) {
      const std::uint64_t a = a_words[j];
      const std::uint64_t b = b_words[j];
      if (j >= first_result) {
        approx_plane[static_cast<std::size_t>(j)] = a ^ b ^ carry;
      }
      carry = (a & b) | (carry & (a | b));
    }
    if (i + 1 == spec_.block_count()) {
      approx_plane[static_cast<std::size_t>(n)] = carry;
    }
  }

  std::uint64_t diff = 0;
  for (int j = 0; j <= n; ++j) {
    diff |= approx_plane[static_cast<std::size_t>(j)] ^
            exact_plane[static_cast<std::size_t>(j)];
  }

  Result result;
  result.lane_mask = lane_mask;
  result.value_error_mask = diff & lane_mask;
  detail::finalize_errors(approx_plane, exact_plane, result.value_error_mask,
                          result.error);
  return result;
}

ErrorMetrics block_monte_carlo(const multibit::BlockChainSpec& spec,
                               const multibit::InputProfile& profile,
                               std::uint64_t samples, std::uint64_t seed) {
  if (static_cast<int>(profile.width()) != spec.n()) {
    throw std::invalid_argument(
        "block_monte_carlo: profile width must equal the block-adder width");
  }
  const BlockSlicedKernel kernel(spec);
  LaneSampler sampler(profile);
  prob::Xoshiro256StarStar rng(seed);
  ErrorMetrics metrics;
  std::array<std::uint64_t, 64> a_words{};
  std::array<std::uint64_t, 64> b_words{};
  for (std::uint64_t first = 0; first < samples; first += 64) {
    const std::uint64_t count = std::min<std::uint64_t>(64, samples - first);
    const std::uint64_t cin_word =
        sampler.draw(rng, count, a_words.data(), b_words.data());
    const std::uint64_t lane_mask =
        count == 64 ? ~0ULL : (1ULL << count) - 1ULL;
    accumulate(metrics, kernel.run_packed(a_words.data(), b_words.data(),
                                          cin_word, lane_mask));
  }
  return metrics;
}

ErrorMetrics block_exhaustive(const multibit::BlockChainSpec& spec,
                              std::size_t max_width) {
  const int n = spec.n();
  if (static_cast<std::size_t>(n) > max_width) {
    throw std::invalid_argument("block_exhaustive: width " +
                                std::to_string(n) +
                                " exceeds the sweep guard " +
                                std::to_string(max_width));
  }
  const BlockSlicedKernel kernel(spec);
  ErrorMetrics metrics;
  const std::uint64_t limit = 1ULL << n;
  const int lane_bits = std::min(n, 6);
  const std::uint64_t lanes_used = 1ULL << lane_bits;
  const std::uint64_t lane_mask =
      lanes_used == 64 ? ~0ULL : (1ULL << lanes_used) - 1ULL;

  std::array<std::uint64_t, 64> a_words;
  std::array<std::uint64_t, 64> b_words;
  a_words.fill(0);
  b_words.fill(0);
  for (std::uint64_t a = 0; a < limit; ++a) {
    for (int i = 0; i < n; ++i) {
      a_words[static_cast<std::size_t>(i)] =
          ((a >> i) & 1ULL) != 0 ? ~0ULL : 0ULL;
    }
    for (std::uint64_t b_high = 0; b_high < (limit >> lane_bits); ++b_high) {
      for (int i = 0; i < n; ++i) {
        b_words[static_cast<std::size_t>(i)] =
            i < lane_bits
                ? kLaneCounterBit[static_cast<std::size_t>(i)]
                : (((b_high >> (i - lane_bits)) & 1ULL) != 0 ? ~0ULL : 0ULL);
      }
      accumulate(metrics,
                 kernel.run_packed(a_words.data(), b_words.data(), 0,
                                   lane_mask));
    }
  }
  return metrics;
}

}  // namespace sealpaa::sim
