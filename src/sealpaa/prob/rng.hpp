// Deterministic pseudo-random generation for the Monte Carlo engines.
//
// Xoshiro256** seeded via SplitMix64: fast, high quality, and fully
// reproducible across platforms (unlike std::mt19937 distributions whose
// outputs are implementation-defined for std::uniform_real_distribution).
#pragma once

#include <array>
#include <cstdint>

namespace sealpaa::prob {

/// SplitMix64 — used to expand a single seed into generator state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256** by Blackman & Vigna.  Satisfies (most of) the
/// UniformRandomBitGenerator requirements.
class Xoshiro256StarStar {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256StarStar(std::uint64_t seed = 0x5ea19aa5eed2017ULL) noexcept;

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return ~static_cast<result_type>(0);
  }

  result_type operator()() noexcept { return next(); }
  /// Inline so the Monte Carlo samplers keep the state in registers
  /// across their per-bit draw loops.
  result_type next() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 random bits.
  [[nodiscard]] double uniform01() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli draw: true with probability `p`.
  [[nodiscard]] bool bernoulli(double p) noexcept { return uniform01() < p; }

  /// Jump function: advances 2^128 steps, for independent parallel streams.
  void jump() noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace sealpaa::prob
