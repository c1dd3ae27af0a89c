// Monte Carlo input sampling straight into bit-sliced lane words.
//
// InputProfile::sample draws one (a, b, cin) assignment per call — a_i
// then b_i for every bit i, then cin — and the bit-sliced kernels want
// the transpose: one word per operand bit holding that bit across 64
// samples.  LaneSampler produces the transposed form directly, with the
// same generator draws in the same order and the same Bernoulli
// decisions, so a batch it fills is bit-identical to 64 sample() calls
// followed by a 64x64 transpose.
//
// Exactness: Xoshiro256StarStar::bernoulli(p) is `uniform01() < p` with
// uniform01() = u * 2^-53 for the 53-bit integer u = next() >> 11.  Both
// u * 2^-53 and p * 2^53 are exact in double for every p in [0, 1], so
// the decision is u < p * 2^53, i.e. u < ceil(p * 2^53) over integers.
// The sampler stores that ceiling per bit and compares integers:
// p = 0 gives threshold 0 (never), p = 1 gives 2^53 (always).
#pragma once

#include <cstdint>
#include <vector>

#include "sealpaa/multibit/input_profile.hpp"
#include "sealpaa/prob/rng.hpp"

namespace sealpaa::sim {

/// Integer Bernoulli threshold of probability `p` in [0, 1]:
/// `(rng.next() >> 11) < threshold` decides exactly like
/// `rng.bernoulli(p)`.
[[nodiscard]] std::uint64_t bernoulli_threshold(double p) noexcept;

/// Draws 64-sample batches of an InputProfile into lane words.
class LaneSampler {
 public:
  explicit LaneSampler(const multibit::InputProfile& profile);

  [[nodiscard]] std::size_t width() const noexcept {
    return slots_.size() / 2;
  }

  /// Draws `count` samples (1..64) from `rng`, lane by lane in
  /// InputProfile::sample's draw order, and writes bit `lane` of
  /// `a_words[i]` / `b_words[i]` (i < width()) and of the returned cin
  /// word.  Bits at or above `count` are zero, and `rng` ends in the
  /// state `count` sample() calls leave it in.
  std::uint64_t draw(prob::Xoshiro256StarStar& rng, std::uint64_t count,
                     std::uint64_t* a_words, std::uint64_t* b_words);

 private:
  // One entry per draw of a sample, in draw order: a0, b0, a1, b1, ...,
  // cin.  Each lane word fills during one draw() and is zero between
  // calls; keeping it next to its threshold lets the draw loop walk a
  // single array.
  struct Slot {
    std::uint64_t threshold = 0;
    std::uint64_t word = 0;
  };
  std::vector<Slot> slots_;
};

}  // namespace sealpaa::sim
