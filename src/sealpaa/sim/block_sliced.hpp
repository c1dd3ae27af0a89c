// Bit-sliced (64-lane) evaluation of block-based approximate adders —
// the cross-validation oracle for analysis::BlockErrorModel at widths
// where exhaustive enumeration is out of reach.
//
// Same transposed data layout as BitSlicedKernel: lane word `W` holds
// one boolean signal across 64 input vectors.  Block sub-adders are
// exact ripple adders, so each bit step is just XOR3 / MAJ3 on lane
// words; the kernel ripples the exact reference carry and every block's
// windowed carry in lockstep and reuses the shared SIMD-dispatched
// transpose / error-finalization primitives from bitsliced.hpp.
// Results are bit-identical to 64 scalar BlockAdder::evaluate calls —
// the scalar model stays the reference oracle and the differential
// suite enforces the identity.
#pragma once

#include <array>
#include <cstdint>

#include "sealpaa/multibit/blocks.hpp"
#include "sealpaa/multibit/input_profile.hpp"
#include "sealpaa/prob/rng.hpp"
#include "sealpaa/sim/metrics.hpp"

namespace sealpaa::sim {

/// Evaluates a BlockChainSpec on 64 packed input vectors per pass.
class BlockSlicedKernel {
 public:
  explicit BlockSlicedKernel(multibit::BlockChainSpec spec);

  [[nodiscard]] const multibit::BlockChainSpec& spec() const noexcept {
    return spec_;
  }
  [[nodiscard]] std::size_t width() const noexcept {
    return static_cast<std::size_t>(spec_.n());
  }

  /// Outcome of one 64-lane batch.  Only lanes in `lane_mask` carry
  /// data; masked lanes report no error.
  struct Result {
    std::uint64_t lane_mask = 0;
    /// Numeric output (sum bits plus carry-out) differs from exact.
    std::uint64_t value_error_mask = 0;
    /// Signed error approx - exact per lane; zero outside
    /// value_error_mask.  Written by run_packed, not the constructor.
    std::array<std::int64_t, 64> error;
  };

  /// Evaluates 64 packed vectors: `a_words[i]` / `b_words[i]` hold bit i
  /// of operand a / b across all lanes, `cin_word` the input carries.
  [[nodiscard]] Result run_packed(const std::uint64_t* a_words,
                                  const std::uint64_t* b_words,
                                  std::uint64_t cin_word,
                                  std::uint64_t lane_mask) const noexcept;

 private:
  multibit::BlockChainSpec spec_;
};

/// Folds one batch into a metrics accumulator.  Block sub-adders are
/// exact, so the stage-level and value-level error events coincide and
/// `value_error_mask` feeds both counters.
inline void accumulate(ErrorMetrics& metrics,
                       const BlockSlicedKernel::Result& result) noexcept {
  metrics.add_batch(result.lane_mask, result.value_error_mask,
                    result.value_error_mask, result.error);
}

/// Profile-sampled Monte Carlo sweep on the bit-sliced kernel: samples
/// are drawn straight into lane words (LaneSampler) and the final
/// partial batch is lane-masked.  Deterministic for a fixed seed.
[[nodiscard]] ErrorMetrics block_monte_carlo(
    const multibit::BlockChainSpec& spec,
    const multibit::InputProfile& profile, std::uint64_t samples,
    std::uint64_t seed);

/// Exhaustive uniform-input sweep over all 2^(2N) pairs (cin = 0) on
/// the bit-sliced kernel; guarded at `max_width` bits.
[[nodiscard]] ErrorMetrics block_exhaustive(
    const multibit::BlockChainSpec& spec, std::size_t max_width = 13);

}  // namespace sealpaa::sim
