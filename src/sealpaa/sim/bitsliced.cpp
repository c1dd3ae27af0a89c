#include "sealpaa/sim/bitsliced.hpp"

#include <bit>
#include <cstddef>

namespace sealpaa::sim {

namespace {

// One candidate product term during compilation: each variable is
// absent (0), positive (1) or negated (2).
struct Implicant {
  std::uint8_t cover = 0;  // rows where the product is 1
  std::uint8_t a = 0, b = 0, c = 0;
};

std::uint8_t coverage(std::uint8_t sa, std::uint8_t sb, std::uint8_t sc) {
  std::uint8_t cover = 0;
  for (std::uint8_t row = 0; row < 8; ++row) {
    const bool av = ((row >> 2) & 1) != 0;
    const bool bv = ((row >> 1) & 1) != 0;
    const bool cv = (row & 1) != 0;
    const bool match = (sa == 0 || (sa == 1) == av) &&
                       (sb == 0 || (sb == 1) == bv) &&
                       (sc == 0 || (sc == 1) == cv);
    if (match) cover |= static_cast<std::uint8_t>(1U << row);
  }
  return cover;
}

SlicedLut::Term make_term(const Implicant& imp) {
  SlicedLut::Term term;
  const auto wire = [](std::uint8_t state, std::uint64_t& flip,
                       std::uint64_t& ignore) {
    flip = state == 2 ? ~0ULL : 0ULL;
    ignore = state == 0 ? ~0ULL : 0ULL;
  };
  wire(imp.a, term.flip_a, term.ignore_a);
  wire(imp.b, term.flip_b, term.ignore_b);
  wire(imp.c, term.flip_c, term.ignore_c);
  return term;
}

}  // namespace

SlicedLut compile_lut(std::uint8_t truth) {
  SlicedLut lut;
  // Recognize the tables with cheaper-than-SOP forms: constants, single
  // literals (wire/pass-through columns — LPAA5 is Sum = B, Cout = A),
  // two-input parities, 0x96 / 0x69 three-input parity and its
  // complement (the accurate sum is parity), and 0xE8 three-input
  // majority (the accurate carry).
  switch (truth) {
    case 0x00:
      lut.kind = SlicedLut::Kind::kConstFalse;
      return lut;
    case 0xFF:
      lut.kind = SlicedLut::Kind::kConstTrue;
      return lut;
    case 0xF0:
      lut.kind = SlicedLut::Kind::kA;
      return lut;
    case 0xCC:
      lut.kind = SlicedLut::Kind::kB;
      return lut;
    case 0xAA:
      lut.kind = SlicedLut::Kind::kC;
      return lut;
    case 0x0F:
      lut.kind = SlicedLut::Kind::kNotA;
      return lut;
    case 0x33:
      lut.kind = SlicedLut::Kind::kNotB;
      return lut;
    case 0x55:
      lut.kind = SlicedLut::Kind::kNotC;
      return lut;
    case 0x3C:
      lut.kind = SlicedLut::Kind::kXorAB;
      return lut;
    case 0xC3:
      lut.kind = SlicedLut::Kind::kXnorAB;
      return lut;
    case 0x5A:
      lut.kind = SlicedLut::Kind::kXorAC;
      return lut;
    case 0xA5:
      lut.kind = SlicedLut::Kind::kXnorAC;
      return lut;
    case 0x66:
      lut.kind = SlicedLut::Kind::kXorBC;
      return lut;
    case 0x99:
      lut.kind = SlicedLut::Kind::kXnorBC;
      return lut;
    case 0x96:
      lut.kind = SlicedLut::Kind::kXor3;
      return lut;
    case 0x69:
      lut.kind = SlicedLut::Kind::kXnor3;
      return lut;
    case 0xE8:
      lut.kind = SlicedLut::Kind::kMaj3;
      return lut;
    default:
      break;
  }

  // Quine–McCluskey, brute force (3 variables): collect every product
  // term that implies the function, keep the prime (maximal) ones, then
  // take the smallest subset covering the on-set exactly.
  std::vector<Implicant> valid;
  for (std::uint8_t sa = 0; sa < 3; ++sa) {
    for (std::uint8_t sb = 0; sb < 3; ++sb) {
      for (std::uint8_t sc = 0; sc < 3; ++sc) {
        if (sa == 0 && sb == 0 && sc == 0) continue;  // covers everything
        const std::uint8_t cover = coverage(sa, sb, sc);
        if ((cover & static_cast<std::uint8_t>(~truth)) == 0) {
          valid.push_back({cover, sa, sb, sc});
        }
      }
    }
  }
  std::vector<Implicant> primes;
  for (const Implicant& imp : valid) {
    bool maximal = true;
    for (const Implicant& other : valid) {
      if (other.cover != imp.cover &&
          (imp.cover & other.cover) == imp.cover) {
        maximal = false;
        break;
      }
    }
    if (maximal) primes.push_back(imp);
  }

  // Exhaustive minimum cover over the prime implicants (at most a dozen
  // candidates, so 2^|primes| subsets are nothing).
  const std::uint32_t subsets = 1U << primes.size();
  std::uint32_t best_subset = 0;
  int best_size = -1;
  for (std::uint32_t subset = 1; subset < subsets; ++subset) {
    const int size = std::popcount(subset);
    if (best_size >= 0 && size >= best_size) continue;
    std::uint8_t cover = 0;
    for (std::size_t i = 0; i < primes.size(); ++i) {
      if ((subset >> i) & 1U) cover |= primes[i].cover;
    }
    if (cover == truth) {
      best_subset = subset;
      best_size = size;
    }
  }

  lut.kind = SlicedLut::Kind::kSop;
  for (std::size_t i = 0; i < primes.size(); ++i) {
    if ((best_subset >> i) & 1U) {
      lut.terms[lut.term_count++] = make_term(primes[i]);
    }
  }
  return lut;
}

void transpose64(std::array<std::uint64_t, 64>& m) noexcept {
  // Hacker's Delight 7-3 recursive block swap, oriented so that the
  // transposed row i holds bit i of every original row: at each scale j
  // the high-j bits of row k trade places with the low-j bits of row
  // k + j.
  std::uint64_t mask = 0x0000'0000'FFFF'FFFFULL;
  for (unsigned j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (unsigned k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((m[k] >> j) ^ m[k + j]) & mask;
      m[k] ^= t << j;
      m[k + j] ^= t;
    }
  }
}

BitSlicedKernel::BitSlicedKernel(const multibit::AdderChain& chain) {
  stages_.reserve(chain.width());
  truths_.reserve(chain.width());
  for (const adders::AdderCell& cell : chain.stages()) {
    std::uint8_t sum_truth = 0;
    std::uint8_t carry_truth = 0;
    std::uint8_t success_truth = 0;
    for (std::uint8_t row = 0; row < adders::AdderCell::kRows; ++row) {
      const std::uint8_t bit = static_cast<std::uint8_t>(1U << row);
      if (cell.rows()[row].sum) sum_truth |= bit;
      if (cell.rows()[row].carry) carry_truth |= bit;
      if (cell.row_is_success(row)) success_truth |= bit;
    }
    stages_.push_back(Stage{compile_lut(sum_truth), compile_lut(carry_truth),
                            compile_lut(success_truth)});
    truths_.push_back(detail::StageTruth{sum_truth, carry_truth,
                                         success_truth});
  }
}

BitSlicedKernel::Result BitSlicedKernel::run_packed(
    const std::uint64_t* a_words, const std::uint64_t* b_words,
    std::uint64_t cin_word, std::uint64_t lane_mask) const noexcept {
  Result result;
  result.lane_mask = lane_mask;
  result.first_failed.fill(-1);

  // Per-bit value planes: row i collects stage i's approximate / exact
  // sum word, row n the carry-out words, rows above stay zero.  One
  // transpose per plane at the end turns them into per-lane numeric
  // values, replacing the old per-stage scatter of differing bits into a
  // per-lane error array (a data-dependent loop iteration per error bit
  // per stage — the kernel hotspot on error-dense cells).
  std::array<std::uint64_t, 64> approx{};
  std::array<std::uint64_t, 64> exact{};
  // Stage i's newly-failed lanes; folded into first_failed after the
  // ripple loop so the fold can run as masked vector blends.
  std::array<std::uint64_t, 64> failed_masks;

  std::uint64_t carry = cin_word;        // the possibly-corrupted carry
  std::uint64_t exact_carry = cin_word;  // the accurate-FA reference carry
  std::uint64_t ok = lane_mask;          // lanes with no failed stage yet
  std::uint64_t sum_diff = 0;

  const std::size_t n = stages_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Stage& stage = stages_[i];
    const std::uint64_t a = a_words[i];
    const std::uint64_t b = b_words[i];

    const std::uint64_t sum = stage.sum.eval(a, b, carry);
    const std::uint64_t success = stage.success.eval(a, b, carry);
    const std::uint64_t next_carry = stage.carry.eval(a, b, carry);

    // Success is judged on the stage's *actual* inputs (including the
    // corrupted carry), exactly as evaluate_traced does.
    failed_masks[i] = ok & ~success;
    ok &= success;

    // The exact reference ripples alongside: parity sum, majority carry.
    const std::uint64_t exact_sum = a ^ b ^ exact_carry;
    const std::uint64_t next_exact = (a & b) | (exact_carry & (a | b));

    sum_diff |= (sum ^ exact_sum) & lane_mask;
    approx[i] = sum;
    exact[i] = exact_sum;

    carry = next_carry;
    exact_carry = next_exact;
  }

  // The carry-out is bit n of the numeric value (AddResult::value).
  approx[n] = carry;
  exact[n] = exact_carry;
  const std::uint64_t carry_diff = (carry ^ exact_carry) & lane_mask;

  result.sum_bits_error_mask = sum_diff;
  result.value_error_mask = sum_diff | carry_diff;
  result.stage_fail_mask = lane_mask & ~ok;
  if (result.stage_fail_mask != 0) {
    detail::scatter_first_failed(failed_masks.data(), n, result.first_failed);
  }
  if (result.value_error_mask != 0) {
    detail::finalize_errors(approx, exact, result.value_error_mask,
                            result.error);
  } else {
    result.error.fill(0);
  }
  return result;
}

void BitSlicedKernel::run_packed_group(const std::uint64_t* a_words,
                                       const std::uint64_t* b_group,
                                       std::uint64_t cin_word,
                                       Result* results) const noexcept {
  if (transpose64_accelerated()) {
    detail::run_packed_group_zmm(truths_.data(), stages_.size(), a_words,
                                 b_group, cin_word, results);
    return;
  }
  // Portable fallback: peel the stage-major group back into per-batch
  // lane words and run each batch through the single-batch kernel.
  const std::size_t n = stages_.size();
  std::array<std::uint64_t, 64> b_words;
  for (std::size_t j = 0; j < kGroupBatches; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      b_words[i] = b_group[kGroupBatches * i + j];
    }
    results[j] = run_packed(a_words, b_words.data(), cin_word, ~0ULL);
  }
}

}  // namespace sealpaa::sim
