// Exact error-distribution analytics: the full probability mass function
// of the signed arithmetic error
//   err = approx_value - exact_value   (carry-out weighted 2^N),
// propagated analytically through the same joint-carry decomposition the
// moment DP in joint.cpp uses — no simulation samples anywhere.
//
// The propagation state is one sparse PMF per (approximate carry, exact
// carry) pair.  Each stage contributes a signed delta
//   d_i = (s_approx - s_exact) * 2^i  in  {-2^i, 0, +2^i}
// conditioned on the joint carries, so advancing a stage is a segmented
// convolution: every (source pair, operand combination) term shifts one
// segment PMF by its delta and the four destination pairs each collect a
// weighted mixture of shifted segments.  Finalizing folds the carry-out
// difference (ca - ce) * 2^N into the merged PMF.
//
// A chain's trailing run of exact cells costs nothing: above stage s both
// sides add the same operand bits with accurate cells, so the upper sums
// differ by exactly (ca_s - ce_s) * 2^s — the very shift finalizing at
// stage s applies.  Every full-chain PMF (propagate_error_pmf,
// engine::ChainEvaluator::error_pmf, the branch-and-bound leaves)
// therefore stops at the start of that run and finalizes there
// (DESIGN.md decision 13).  All probability
// accumulation is Kahan-compensated (prob/kahan.hpp) and deterministic,
// so MED/MSE/WCE land within 1e-12 of the weighted-exhaustive oracle
// while costing O(N * support) instead of O(2^(2N+1)).
//
// Each mixture picks the cheaper of two bit-identical accumulators: a
// dense compensated array over the destination value span (cost ~ span
// + entries), or a k-way merge of the terms' sorted runs (cost ~ entries
// x log k) when the entries fill only a small share of the span, as they
// do when error values cluster at +-2^k.  The crossover is a fixed,
// measured constant (DESIGN.md decision 7); `PmfOptions::dense_threshold`
// only caps the dense array's memory.  Convolution of two
// *independent* error PMFs (block-composed adders, repeated datapath use)
// additionally routes through a radix-2 FFT once the naive cost passes
// `PmfOptions::fft_threshold`; see DESIGN.md for the switchover
// rationale.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sealpaa/multibit/chain.hpp"
#include "sealpaa/multibit/input_profile.hpp"

namespace sealpaa::analysis {

/// Tuning knobs for PMF representation switchover and safety rails.
struct PmfOptions {
  /// Memory rail of the dense mixture accumulator: a mixture whose
  /// destination value span (max - min + 1) exceeds this many slots
  /// always takes the k-way merge.  Below it the cheaper path wins, so
  /// raising it never makes a sparse span dense.  16 bytes/slot
  /// (compensated accumulator), so the default costs at most 1 MiB;
  /// 0 forces the merge.
  std::size_t dense_threshold = std::size_t{1} << 16;
  /// convolve() switches from the exact naive product to FFT when
  /// support(a) * support(b) exceeds this (and the result span is
  /// dense-representable).  The FFT path is accurate to ~1e-14 relative;
  /// set to SIZE_MAX to force the exact path.
  std::size_t fft_threshold = std::size_t{1} << 16;
  /// Hard cap on any intermediate or final support size; propagation
  /// throws std::length_error beyond it instead of consuming unbounded
  /// memory on adversarial cells.
  std::size_t max_support = std::size_t{1} << 22;
};

/// A sparse signed-magnitude probability mass function over int64 error
/// values.  Entries are strictly sorted by value; zero-probability
/// entries are never stored, so every stored value is reachable with
/// positive probability.
class ErrorPmf {
 public:
  struct Entry {
    std::int64_t value = 0;
    double probability = 0.0;

    friend bool operator==(const Entry&, const Entry&) = default;
  };
  using Entries = std::vector<Entry>;

  /// One weighted, shifted operand of a mixture:
  ///   contribution = scale * shift(*pmf, offset).
  struct Term {
    const ErrorPmf* pmf = nullptr;
    double scale = 0.0;
    std::int64_t offset = 0;
  };

  ErrorPmf() = default;  // zero measure (no mass)

  /// Single-point distribution.
  [[nodiscard]] static ErrorPmf point_mass(std::int64_t value,
                                           double probability = 1.0);

  /// Builds a PMF from arbitrary (value, probability) pairs: sorts,
  /// merges duplicates with compensated addition, drops zero-probability
  /// points.  Throws std::invalid_argument on negative probabilities.
  [[nodiscard]] static ErrorPmf from_entries(Entries entries);

  /// Kahan-compensated weighted sum of shifted PMFs — the segmented-
  /// convolution primitive behind the per-stage propagation.  Takes the
  /// dense accumulator (cost ~ span + entries) or the k-way merge over
  /// the terms' runs (cost ~ entries x log k), whichever is cheaper;
  /// spans past `options.dense_threshold` always merge.  Both add each
  /// value's contributions in term order into a fresh compensated sum,
  /// so they produce bit-identical results for any k.  Throws
  /// std::invalid_argument on a negative scale and std::length_error
  /// when the result support exceeds `options.max_support`.
  [[nodiscard]] static ErrorPmf mixture(std::span<const Term> terms,
                                        const PmfOptions& options = {});

  /// Distribution of a.err + b.err for *independent* error sources
  /// (e.g. disjoint sub-adder blocks).  Exact naive product below
  /// `options.fft_threshold`, radix-2 FFT above it.
  [[nodiscard]] static ErrorPmf convolve(const ErrorPmf& a, const ErrorPmf& b,
                                         const PmfOptions& options = {});

  [[nodiscard]] const Entries& entries() const noexcept { return entries_; }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] std::size_t support_size() const noexcept {
    return entries_.size();
  }
  /// Smallest / largest value carrying mass.  Precondition: !empty().
  [[nodiscard]] std::int64_t min_value() const noexcept {
    return entries_.front().value;
  }
  [[nodiscard]] std::int64_t max_value() const noexcept {
    return entries_.back().value;
  }

  /// Total mass (compensated).  1.0 (within float error) for a PMF,
  /// less for a conditioned segment mid-propagation.
  [[nodiscard]] double total_mass() const noexcept;
  /// Mass at exactly `value` (binary search; 0.0 when absent).
  [[nodiscard]] double probability_of(std::int64_t value) const noexcept;

  /// P(err != 0) — the value-level error rate.  Summed directly over the
  /// nonzero support (compensated), not computed as 1 - P(0).
  [[nodiscard]] double error_rate() const noexcept;
  /// E[err].
  [[nodiscard]] double mean_error() const noexcept;
  /// E[|err|] — the mean error distance (MED).
  [[nodiscard]] double mean_error_distance() const noexcept;
  /// E[err^2] — the mean squared error (MSE).
  [[nodiscard]] double mean_squared_error() const noexcept;
  /// The worst error in the support under sim::worse_error's total order
  /// (larger magnitude wins, magnitude ties resolve to the negative
  /// error).  0 for an empty or exact distribution — matching the
  /// simulators' accumulator identity.
  [[nodiscard]] std::int64_t worst_case_error() const noexcept;
  /// Shannon entropy of the distribution in bits.
  [[nodiscard]] double entropy_bits() const noexcept;
  /// Peak signal-to-noise ratio against the exact adder for an N-bit
  /// output range: 10*log10(peak^2 / MSE) with peak = 2^width - 1 (the
  /// same peak^2/MSE convention apps/image.cpp uses with peak = 255).
  /// +infinity when MSE == 0.
  [[nodiscard]] double psnr_db(std::size_t width) const noexcept;
  /// The k highest-probability mass points, ordered by descending
  /// probability (value ascending on ties) — the run-report projection.
  [[nodiscard]] Entries top_mass_points(std::size_t k) const;

 private:
  explicit ErrorPmf(Entries entries) noexcept
      : entries_(std::move(entries)) {}

  Entries entries_;  // strictly ascending by value, probabilities > 0
};

/// Widest chain the error PMF represents: a 63rd stage would put the
/// carry-out weight at 2^63, outside the signed error domain (the chain
/// layer allows width 63; the PMF does not).
inline constexpr std::size_t kMaxPmfWidth = 62;

/// Throws std::length_error when a chain of `width` stages is wider than
/// kMaxPmfWidth.  The rail is on the chain width, not on the stages
/// actually propagated, so folding an exact suffix never lets a too-wide
/// chain through.
void check_pmf_width(std::size_t width);

/// Propagation state: one conditioned error PMF per joint carry pair
/// (approximate carry ca, exact carry ce), indexed `(ca << 1) | ce` like
/// the moment DP.  `joint[j].total_mass()` is P(reaching pair j), so the
/// four masses always sum to 1.
struct ErrorPmfState {
  std::array<ErrorPmf, 4> joint{};
  std::size_t stage = 0;  // stages absorbed so far
};

/// Initial state before stage 0: err = 0 with the carry-in split between
/// the (0,0) and (1,1) pairs.
[[nodiscard]] ErrorPmfState make_error_pmf_state(double p_cin);

/// Absorbs one stage: shifts each (source pair, operand combination)
/// segment of `from` by its error delta and writes the destination-pair
/// mixtures straight into `into` (whose previous contents are replaced;
/// `from` is left untouched).  The stage index comes from `from`; throws
/// std::length_error past 62 stages (the carry-out weight 2^63 would
/// overflow the signed error) and std::invalid_argument when `from` and
/// `into` are the same object.
void advance_error_pmf(const ErrorPmfState& from, const adders::AdderCell& cell,
                       double p_a, double p_b, ErrorPmfState& into,
                       const PmfOptions& options = {});

/// In-place form of the above: bit-identical to advancing into a fresh
/// state and moving it back.
void advance_error_pmf(ErrorPmfState& state, const adders::AdderCell& cell,
                       double p_a, double p_b,
                       const PmfOptions& options = {});

/// Merges the four segments into the final error PMF, folding the
/// carry-out difference (ca - ce) * 2^stage into the shift.
[[nodiscard]] ErrorPmf finalize_error_pmf(const ErrorPmfState& state,
                                          const PmfOptions& options = {});

/// Error PMF of a full chain under `profile`: propagates the stages
/// below the chain's trailing run of exact cells (AdderCell::is_exact)
/// and finalizes there, which equals advancing through the whole chain
/// (the run only carries (ca - ce) * 2^s up to the carry-out).  An
/// all-exact chain is the point mass at 0.  Throws std::length_error for
/// widths past kMaxPmfWidth, whatever the chain ends in.
[[nodiscard]] ErrorPmf propagate_error_pmf(const multibit::AdderChain& chain,
                                           const multibit::InputProfile& profile,
                                           const PmfOptions& options = {});

}  // namespace sealpaa::analysis
