// Bit-sliced (64-lane) chain evaluation — the transposed-data-layout
// trick of gate-level logic and fault simulators applied to the ripple
// chain.  One pass over the stages processes 64 input vectors at once:
// lane word `W` holds one boolean signal for all 64 vectors (bit `l` of
// `W` is the signal in lane `l`), and every stage becomes a handful of
// plain uint64 boolean operations instead of 64 scalar truth-table
// lookups.
//
// Each AdderCell's 8-row truth table is compiled once into a minimized
// sum-of-products expression over the three lane words (A, B, Cin); the
// kernel then ripples the approximate carry, the *exact* reference carry
// and the paper's per-stage success event through the chain in lockstep,
// so error probability, first-failed-stage and signed error magnitudes
// all come out lane-parallel.  Results are bit-identical to the scalar
// AdderChain::evaluate_traced / exact_add path — the scalar evaluator
// stays the reference oracle and the differential suite enforces
// equality.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sealpaa/multibit/chain.hpp"
#include "sealpaa/sim/metrics.hpp"

namespace sealpaa::sim {

/// Lane-word constants for counter-patterned inputs: bit `l` of
/// `kLaneCounterBit[k]` is bit `k` of the lane index `l`.  The exhaustive
/// sweep uses these to materialize 64 consecutive (b, cin) cases without
/// any transpose (cin toggles fastest, so cin = kLaneCounterBit[0] and
/// bit i of b is kLaneCounterBit[i + 1] for the low bits).
inline constexpr std::array<std::uint64_t, 6> kLaneCounterBit = {
    0xAAAA'AAAA'AAAA'AAAAULL, 0xCCCC'CCCC'CCCC'CCCCULL,
    0xF0F0'F0F0'F0F0'F0F0ULL, 0xFF00'FF00'FF00'FF00ULL,
    0xFFFF'0000'FFFF'0000ULL, 0xFFFF'FFFF'0000'0000ULL,
};

/// A 3-input boolean function compiled from an 8-bit truth table (bit r
/// of `truth` is the output for row r = (a<<2)|(b<<1)|cin, the paper's
/// Table 1 row order) into a form evaluable on 64-bit lane words.
/// Constant, single-literal, two-input parity, three-input parity and
/// majority tables get dedicated forms (the approximate cells are full of
/// wire-only and pass-through columns — LPAA5 is literally Sum = B,
/// Cout = A); everything else becomes a minimal sum-of-products found by
/// exhaustive prime-implicant cover (trivial at 3 variables).
struct SlicedLut {
  enum class Kind : std::uint8_t {
    kConstFalse,  // truth 0x00
    kConstTrue,   // truth 0xFF
    kA,           // truth 0xF0 (pass-through / wire columns)
    kB,           // truth 0xCC
    kC,           // truth 0xAA
    kNotA,        // truth 0x0F
    kNotB,        // truth 0x33
    kNotC,        // truth 0x55
    kXorAB,       // truth 0x3C
    kXnorAB,      // truth 0xC3
    kXorAC,       // truth 0x5A
    kXnorAC,      // truth 0xA5
    kXorBC,       // truth 0x66
    kXnorBC,      // truth 0x99
    kXor3,        // A ^ B ^ C        (accurate sum)
    kXnor3,       // ~(A ^ B ^ C)
    kMaj3,        // (A&B)|(C&(A|B))  (accurate carry)
    kSop,         // OR of product terms
  };

  /// One product term, branch-free: a variable contributes
  /// `(W ^ flip) | ignore` — W itself (flip=0, ignore=0), its complement
  /// (flip=~0, ignore=0) or all-ones when absent from the term
  /// (ignore=~0).
  struct Term {
    std::uint64_t flip_a = 0, ignore_a = 0;
    std::uint64_t flip_b = 0, ignore_b = 0;
    std::uint64_t flip_c = 0, ignore_c = 0;
  };

  Kind kind = Kind::kConstFalse;
  std::uint8_t term_count = 0;
  std::array<Term, 8> terms{};  // minimal SOP of 3 vars needs at most 4

  /// Evaluates the function on three lane words.
  [[nodiscard]] std::uint64_t eval(std::uint64_t a, std::uint64_t b,
                                   std::uint64_t c) const noexcept {
    switch (kind) {
      case Kind::kConstFalse:
        return 0;
      case Kind::kConstTrue:
        return ~0ULL;
      case Kind::kA:
        return a;
      case Kind::kB:
        return b;
      case Kind::kC:
        return c;
      case Kind::kNotA:
        return ~a;
      case Kind::kNotB:
        return ~b;
      case Kind::kNotC:
        return ~c;
      case Kind::kXorAB:
        return a ^ b;
      case Kind::kXnorAB:
        return ~(a ^ b);
      case Kind::kXorAC:
        return a ^ c;
      case Kind::kXnorAC:
        return ~(a ^ c);
      case Kind::kXorBC:
        return b ^ c;
      case Kind::kXnorBC:
        return ~(b ^ c);
      case Kind::kXor3:
        return a ^ b ^ c;
      case Kind::kXnor3:
        return ~(a ^ b ^ c);
      case Kind::kMaj3:
        return (a & b) | (c & (a | b));
      case Kind::kSop:
        break;
    }
    std::uint64_t out = 0;
    for (std::uint8_t t = 0; t < term_count; ++t) {
      const Term& term = terms[t];
      out |= ((a ^ term.flip_a) | term.ignore_a) &
             ((b ^ term.flip_b) | term.ignore_b) &
             ((c ^ term.flip_c) | term.ignore_c);
    }
    return out;
  }
};

/// Compiles an 8-bit truth table into its minimized lane-word form.
[[nodiscard]] SlicedLut compile_lut(std::uint8_t truth);

/// In-place 64x64 bit-matrix transpose: bit i of output row l equals bit
/// l of input row i.  Turns the value planes back into per-lane values
/// (detail::finalize_errors) and packs per-lane operands into lane words
/// in tests.  This is the portable reference implementation (Hacker's
/// Delight block swaps).
void transpose64(std::array<std::uint64_t, 64>& m) noexcept;

/// Same contract as transpose64, but dispatched at runtime to an
/// AVX-512 + GFNI kernel when the CPU has one (a byte-gather shuffle
/// network plus one 8x8 bit transpose per block via GF2P8AFFINEQB);
/// falls back to transpose64 otherwise.  Both implementations are pure
/// bit permutations, so the dispatch never affects results.
void transpose64_fast(std::array<std::uint64_t, 64>& m) noexcept;

/// True when transpose64_fast runs the SIMD kernel on this machine.
[[nodiscard]] bool transpose64_accelerated() noexcept;

namespace detail {

/// Raw 8-bit truth tables of one stage, in the paper's Table 1 row order
/// (bit r is the output for row r = (a<<2)|(b<<1)|cin).  The grouped
/// AVX-512 kernel consumes these directly: the row order matches the
/// VPTERNLOGQ immediate's bit indexing, so every table — wire, parity,
/// majority or arbitrary — evaluates in a single instruction there.
struct StageTruth {
  std::uint8_t sum = 0;
  std::uint8_t carry = 0;
  std::uint8_t success = 0;
};

/// first_failed[l] = index of the first stage whose failure mask has bit
/// l set, -1 when none does.  `failed_masks[i]` is stage i's
/// newly-failed lane mask; the masks are disjoint by construction (a
/// lane fails at most once).  Dispatches to an AVX-512BW masked-blend
/// loop (one blend per stage) when available, else scatters bit by bit.
void scatter_first_failed(const std::uint64_t* failed_masks, std::size_t n,
                          std::array<std::int8_t, 64>& first_failed) noexcept;

/// Transposes the two value planes in place (rows = bits, one word per
/// bit) and writes every lane of `error`: int64(approx[l] - exact[l])
/// for lanes in `value_error_mask`, zero for all others.  The uint64
/// subtraction wraps exactly like the scalar int64(approx) -
/// int64(exact).  Dispatches to masked AVX-512 subtracts after a fused
/// two-plane SIMD transpose when available.
void finalize_errors(std::array<std::uint64_t, 64>& approx,
                     std::array<std::uint64_t, 64>& exact,
                     std::uint64_t value_error_mask,
                     std::array<std::int64_t, 64>& error) noexcept;

}  // namespace detail

/// Evaluates an AdderChain on 64 packed input vectors per pass.
class BitSlicedKernel {
 public:
  /// Compiles every stage's sum / carry-out / success truth tables.  The
  /// chain width is bounded at 63 bits by AdderChain itself, so the
  /// carry-out always fits bit `width()` of a lane value.
  explicit BitSlicedKernel(const multibit::AdderChain& chain);

  [[nodiscard]] std::size_t width() const noexcept { return stages_.size(); }

  /// Outcome of one 64-lane batch.  Only lanes in `lane_mask` carry data;
  /// masked lanes report no error and first_failed = -1.
  struct Result {
    std::uint64_t lane_mask = 0;
    /// Paper success event failed (some stage deviated from the accurate
    /// FA on its actual inputs).
    std::uint64_t stage_fail_mask = 0;
    /// Numeric output (sum bits plus carry-out) differs from exact.
    std::uint64_t value_error_mask = 0;
    /// Sum bits differ from exact (carry-out ignored).
    std::uint64_t sum_bits_error_mask = 0;
    /// Signed error approx - exact per lane (same wraparound semantics
    /// as the scalar int64 subtraction); zero outside value_error_mask.
    /// Not initialized by the default constructor — run_packed
    /// writes every lane before returning.
    std::array<std::int64_t, 64> error;
    /// First stage whose outputs deviated from the accurate FA; -1 when
    /// every stage succeeded (TracedAddResult::first_failed_stage).
    /// Like `error`, written by run_packed, not the constructor.
    std::array<std::int8_t, 64> first_failed;
  };

  /// Evaluates 64 packed vectors: `a_words[i]` / `b_words[i]` hold bit i
  /// of operand a / b across all lanes, `cin_word` the input carries.
  [[nodiscard]] Result run_packed(const std::uint64_t* a_words,
                                  const std::uint64_t* b_words,
                                  std::uint64_t cin_word,
                                  std::uint64_t lane_mask) const noexcept;

  /// Batches evaluated together by run_packed_group.
  static constexpr std::size_t kGroupBatches = 8;

  /// Evaluates kGroupBatches full batches (512 vectors) that share the
  /// same `a_words` and `cin_word` — the shape of the exhaustive sweep's
  /// inner loop, where only the high bits of b change between
  /// consecutive batches.  `b_group` is stage-major: b_group[8*i + j]
  /// holds bit i of batch j's b operand.  Every batch uses the full lane
  /// mask; results[j] is bit-identical to run_packed on batch j alone.
  ///
  /// On AVX-512 hardware the whole group ripples in zmm registers, one
  /// VPTERNLOGQ per truth table per stage for all 512 lanes — this is
  /// where LUT evaluation and dispatch cost stop mattering; elsewhere it
  /// decays to kGroupBatches run_packed calls.
  void run_packed_group(const std::uint64_t* a_words,
                        const std::uint64_t* b_group, std::uint64_t cin_word,
                        Result* results) const noexcept;

 private:
  struct Stage {
    SlicedLut sum;
    SlicedLut carry;
    SlicedLut success;
  };
  std::vector<Stage> stages_;
  std::vector<detail::StageTruth> truths_;
};

namespace detail {

/// AVX-512 implementation behind run_packed_group: the stage loop runs
/// on 512-bit words (8 batches side by side), each truth table applied
/// with a single VPTERNLOGQ whose immediate IS the table.  Defined as an
/// unreachable stub on builds without the x86 kernels —
/// transpose64_accelerated() gates every call.
void run_packed_group_zmm(const StageTruth* truths, std::size_t n,
                          const std::uint64_t* a_words,
                          const std::uint64_t* b_group,
                          std::uint64_t cin_word,
                          BitSlicedKernel::Result* results) noexcept;

}  // namespace detail

/// Folds one batch into a metrics accumulator via
/// ErrorMetrics::add_batch — bit-identical to 64 scalar add() calls in
/// ascending lane order.
inline void accumulate(ErrorMetrics& metrics,
                       const BitSlicedKernel::Result& result) noexcept {
  metrics.add_batch(result.lane_mask, result.value_error_mask,
                    result.stage_fail_mask, result.error);
}

}  // namespace sealpaa::sim
