#include "sealpaa/analysis/error_pmf.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "sealpaa/prob/kahan.hpp"
#include "sealpaa/sim/metrics.hpp"  // header-only worse_error / error_magnitude

namespace sealpaa::analysis {

namespace {

constexpr std::size_t joint_index(bool ca, bool ce) noexcept {
  return (static_cast<std::size_t>(ca) << 1) | static_cast<std::size_t>(ce);
}

// Probability of each (a, b) operand-bit combination at one stage —
// same ordering as the moment DP in joint.cpp.
std::array<double, 4> ab_weights(double p_a, double p_b) noexcept {
  const double na = 1.0 - p_a;
  const double nb = 1.0 - p_b;
  return {na * nb, na * p_b, p_a * nb, p_a * p_b};
}

// Unsigned value span (max - min); well-defined for any int64 pair.
std::uint64_t value_span(std::int64_t min, std::int64_t max) noexcept {
  return static_cast<std::uint64_t>(max) - static_cast<std::uint64_t>(min);
}

[[noreturn]] void throw_support_overflow(std::size_t support,
                                         std::size_t max_support) {
  throw std::length_error("ErrorPmf: support " + std::to_string(support) +
                          " exceeds PmfOptions::max_support " +
                          std::to_string(max_support));
}

// A term contributes to a mixture when it has mass to shift.
bool is_live(const ErrorPmf::Term& term) noexcept {
  return term.pmf != nullptr && !term.pmf->empty() && term.scale != 0.0;
}

// Path choice by cost, in dense slots.  The dense accumulator pays
// about one slot per value in the span plus one per entry; the k-way
// merge about kMergeSlotsPerLevel per entry for each of its
// ceil(log2 k) + 1 heap levels (the + 1 is the pop every entry pays,
// even for a single term).  Timed on the term sets of med-objective
// propagations over {LPAA1..5, AccuFA} (4-vCPU VM, g++ 12.2 Release):
// a merged entry costs about 11 ns, a dense slot about 1.8 ns and a
// dense entry about 2.7 ns, so at the common 4 to 8 live terms the
// merge wins once the span passes about 5 to 7 times the entries.  See
// DESIGN.md decision 7.
constexpr std::uint64_t kMergeSlotsPerLevel = 2;

// True when the k-way merge over `live_terms` runs holding
// `total_entries` entries is cheaper than a dense pass over `span` + 1
// slots.
bool merge_is_cheaper(std::uint64_t span, std::size_t total_entries,
                      std::size_t live_terms) noexcept {
  const auto levels =
      static_cast<std::uint64_t>(std::bit_width(live_terms - 1)) + 1;
  const std::uint64_t entries = total_entries;
  return entries * levels * kMergeSlotsPerLevel < span + 1 + entries;
}

// The k-way merge behind ErrorPmf::mixture's sparse path.  Every live
// term is a run already sorted by value (a shift keeps the order), so a
// binary min-heap over the run heads, keyed (value, term index), pops
// the contributions in exactly the order a stable sort of the gathered
// contributions would: ascending value, ties in term order.  Each
// value's contributions go into a fresh compensated sum in that order —
// the dense accumulator's per-slot order too, so both paths produce
// the same bits.  Out of line so the dense loop's code stays as it is.
[[gnu::noinline]] ErrorPmf::Entries merge_terms(
    std::span<const ErrorPmf::Term> terms, std::size_t live_terms,
    std::size_t total_entries) {
  struct Head {
    std::int64_t value;  // the run's next shifted value
    std::size_t run;     // index into `runs`, in term order
  };
  struct Run {
    const ErrorPmf::Entry* next;
    const ErrorPmf::Entry* end;
    double scale;
    std::int64_t offset;
  };
  std::vector<Head> heads(live_terms);
  std::vector<Run> runs(live_terms);

  const auto before = [](const Head& a, const Head& b) noexcept {
    return a.value < b.value || (a.value == b.value && a.run < b.run);
  };
  // Restores the heap below position `i` whose head may have grown.
  const auto sift_down = [&](std::size_t i, std::size_t count) noexcept {
    const Head moving = heads[i];
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= count) break;
      if (child + 1 < count && before(heads[child + 1], heads[child])) {
        ++child;
      }
      if (!before(heads[child], moving)) break;
      heads[i] = heads[child];
      i = child;
    }
    heads[i] = moving;
  };

  std::size_t count = 0;
  for (const ErrorPmf::Term& term : terms) {
    if (!is_live(term)) continue;
    const ErrorPmf::Entries& entries = term.pmf->entries();
    runs[count] = Run{entries.data(), entries.data() + entries.size(),
                      term.scale, term.offset};
    heads[count] = Head{entries.front().value + term.offset, count};
    ++count;
  }
  for (std::size_t i = count / 2; i-- > 0;) sift_down(i, count);

  ErrorPmf::Entries out;
  out.reserve(total_entries);
  while (count > 0) {
    const std::int64_t value = heads[0].value;
    prob::KahanSum mass;
    do {
      Run& run = runs[heads[0].run];
      mass.add(run.scale * run.next->probability);
      if (++run.next != run.end) {
        heads[0].value = run.next->value + run.offset;
      } else {
        heads[0] = heads[--count];
      }
      sift_down(0, count);
    } while (count > 0 && heads[0].value == value);
    if (mass.value() > 0.0) out.push_back(ErrorPmf::Entry{value, mass.value()});
  }
  return out;
}

// In-place iterative radix-2 Cooley-Tukey; `size` must be a power of two.
void fft(std::vector<std::complex<double>>& data, bool inverse) {
  const std::size_t size = data.size();
  for (std::size_t i = 1, j = 0; i < size; ++i) {
    std::size_t bit = size >> 1;
    for (; (j & bit) != 0; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
  for (std::size_t len = 2; len <= size; len <<= 1) {
    const double angle =
        (inverse ? 2.0 : -2.0) * std::acos(-1.0) / static_cast<double>(len);
    const std::complex<double> root(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < size; i += len) {
      std::complex<double> w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const std::complex<double> even = data[i + k];
        const std::complex<double> odd = data[i + k + len / 2] * w;
        data[i + k] = even + odd;
        data[i + k + len / 2] = even - odd;
        w *= root;
      }
    }
  }
  if (inverse) {
    for (auto& x : data) x /= static_cast<double>(size);
  }
}

}  // namespace

ErrorPmf ErrorPmf::point_mass(std::int64_t value, double probability) {
  return from_entries({Entry{value, probability}});
}

ErrorPmf ErrorPmf::from_entries(Entries entries) {
  for (const Entry& entry : entries) {
    if (!(entry.probability >= 0.0)) {
      throw std::invalid_argument(
          "ErrorPmf: probabilities must be non-negative finite");
    }
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.value < b.value;
                   });
  Entries merged;
  merged.reserve(entries.size());
  std::size_t i = 0;
  while (i < entries.size()) {
    const std::int64_t value = entries[i].value;
    prob::KahanSum mass;
    for (; i < entries.size() && entries[i].value == value; ++i) {
      mass.add(entries[i].probability);
    }
    if (mass.value() > 0.0) merged.push_back(Entry{value, mass.value()});
  }
  return ErrorPmf(std::move(merged));
}

ErrorPmf ErrorPmf::mixture(std::span<const Term> terms,
                           const PmfOptions& options) {
  // Live terms in caller order — the accumulation order below is a
  // deterministic function of that order in both representations.
  std::int64_t min = std::numeric_limits<std::int64_t>::max();
  std::int64_t max = std::numeric_limits<std::int64_t>::min();
  std::size_t total_entries = 0;
  std::size_t live_terms = 0;
  for (const Term& term : terms) {
    if (!is_live(term)) continue;
    ++live_terms;
    if (!(term.scale > 0.0)) {
      throw std::invalid_argument("ErrorPmf::mixture: scales must be >= 0");
    }
    min = std::min(min, term.pmf->min_value() + term.offset);
    max = std::max(max, term.pmf->max_value() + term.offset);
    total_entries += term.pmf->support_size();
  }
  if (total_entries == 0) return ErrorPmf{};

  const std::uint64_t span = value_span(min, max);
  Entries out;
  if (span < options.dense_threshold &&
      !merge_is_cheaper(span, total_entries, live_terms)) {
    // Dense compensated accumulation over the contiguous span.  Each
    // slot receives its contributions in term order, matching the
    // k-way merge bit for bit.
    std::vector<prob::KahanSum> slots(static_cast<std::size_t>(span) + 1);
    for (const Term& term : terms) {
      if (!is_live(term)) continue;
      for (const Entry& entry : term.pmf->entries()) {
        const std::uint64_t slot =
            value_span(min, entry.value + term.offset);
        slots[static_cast<std::size_t>(slot)].add(term.scale *
                                                  entry.probability);
      }
    }
    out.reserve(std::min(slots.size(), total_entries));
    for (std::size_t s = 0; s < slots.size(); ++s) {
      const double mass = slots[s].value();
      if (mass > 0.0) {
        out.push_back(Entry{min + static_cast<std::int64_t>(s), mass});
      }
    }
  } else {
    out = merge_terms(terms, live_terms, total_entries);
  }
  if (out.size() > options.max_support) {
    throw_support_overflow(out.size(), options.max_support);
  }
  return ErrorPmf(std::move(out));
}

ErrorPmf ErrorPmf::convolve(const ErrorPmf& a, const ErrorPmf& b,
                            const PmfOptions& options) {
  if (a.empty() || b.empty()) return ErrorPmf{};
  const std::size_t naive_cost = a.support_size() * b.support_size();
  const std::uint64_t out_span =
      value_span(a.min_value(), a.max_value()) +
      value_span(b.min_value(), b.max_value());

  if (naive_cost > options.fft_threshold &&
      out_span < (std::uint64_t{1} << 26)) {
    // FFT path: both operands dense over their spans, circular
    // convolution sized to the next power of two covering the result.
    const std::size_t la = static_cast<std::size_t>(
        value_span(a.min_value(), a.max_value())) + 1;
    const std::size_t lb = static_cast<std::size_t>(
        value_span(b.min_value(), b.max_value())) + 1;
    std::size_t size = 1;
    while (size < la + lb - 1) size <<= 1;
    std::vector<std::complex<double>> fa(size), fb(size);
    for (const Entry& entry : a.entries()) {
      fa[static_cast<std::size_t>(value_span(a.min_value(), entry.value))] =
          entry.probability;
    }
    for (const Entry& entry : b.entries()) {
      fb[static_cast<std::size_t>(value_span(b.min_value(), entry.value))] =
          entry.probability;
    }
    fft(fa, /*inverse=*/false);
    fft(fb, /*inverse=*/false);
    for (std::size_t i = 0; i < size; ++i) fa[i] *= fb[i];
    fft(fa, /*inverse=*/true);

    double peak = 0.0;
    for (std::size_t i = 0; i + 1 < la + lb; ++i) {
      peak = std::max(peak, fa[i].real());
    }
    // Round-off from the transform shows up as tiny (possibly negative)
    // coefficients on values with no true mass; clip below the noise
    // floor instead of reporting phantom support.
    const double floor = peak * static_cast<double>(size) *
                         std::numeric_limits<double>::epsilon();
    Entries out;
    const std::int64_t base = a.min_value() + b.min_value();
    for (std::size_t i = 0; i + 1 < la + lb; ++i) {
      const double mass = fa[i].real();
      if (mass > floor) {
        out.push_back(Entry{base + static_cast<std::int64_t>(i), mass});
      }
    }
    if (out.size() > options.max_support) {
      throw_support_overflow(out.size(), options.max_support);
    }
    return ErrorPmf(std::move(out));
  }

  // Exact path: a mixture of b shifted by each point of a.
  std::vector<Term> terms;
  terms.reserve(a.support_size());
  for (const Entry& entry : a.entries()) {
    terms.push_back(Term{&b, entry.probability, entry.value});
  }
  return mixture(terms, options);
}

double ErrorPmf::total_mass() const noexcept {
  prob::KahanSum mass;
  for (const Entry& entry : entries_) mass.add(entry.probability);
  return mass.value();
}

double ErrorPmf::probability_of(std::int64_t value) const noexcept {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), value,
      [](const Entry& entry, std::int64_t v) { return entry.value < v; });
  if (it != entries_.end() && it->value == value) return it->probability;
  return 0.0;
}

double ErrorPmf::error_rate() const noexcept {
  prob::KahanSum mass;
  for (const Entry& entry : entries_) {
    if (entry.value != 0) mass.add(entry.probability);
  }
  return mass.value();
}

double ErrorPmf::mean_error() const noexcept {
  prob::KahanSum sum;
  for (const Entry& entry : entries_) {
    sum.add(entry.probability * static_cast<double>(entry.value));
  }
  return sum.value();
}

double ErrorPmf::mean_error_distance() const noexcept {
  prob::KahanSum sum;
  for (const Entry& entry : entries_) {
    sum.add(entry.probability *
            static_cast<double>(sim::error_magnitude(entry.value)));
  }
  return sum.value();
}

double ErrorPmf::mean_squared_error() const noexcept {
  prob::KahanSum sum;
  for (const Entry& entry : entries_) {
    const double magnitude =
        static_cast<double>(sim::error_magnitude(entry.value));
    sum.add(entry.probability * magnitude * magnitude);
  }
  return sum.value();
}

std::int64_t ErrorPmf::worst_case_error() const noexcept {
  std::int64_t worst = 0;
  for (const Entry& entry : entries_) {
    if (sim::worse_error(entry.value, worst)) worst = entry.value;
  }
  return worst;
}

double ErrorPmf::entropy_bits() const noexcept {
  prob::KahanSum bits;
  for (const Entry& entry : entries_) {
    if (entry.probability > 0.0) {
      bits.add(-entry.probability * std::log2(entry.probability));
    }
  }
  return std::max(0.0, bits.value());
}

double ErrorPmf::psnr_db(std::size_t width) const noexcept {
  const double mse = mean_squared_error();
  if (mse == 0.0) return std::numeric_limits<double>::infinity();
  const double peak = std::pow(2.0, static_cast<double>(width)) - 1.0;
  return 10.0 * std::log10(peak * peak / mse);
}

ErrorPmf::Entries ErrorPmf::top_mass_points(std::size_t k) const {
  Entries ranked = entries_;
  const std::size_t keep = std::min(k, ranked.size());
  std::partial_sort(ranked.begin(),
                    ranked.begin() + static_cast<std::ptrdiff_t>(keep),
                    ranked.end(), [](const Entry& a, const Entry& b) {
                      if (a.probability != b.probability) {
                        return a.probability > b.probability;
                      }
                      return a.value < b.value;
                    });
  ranked.resize(keep);
  return ranked;
}

void check_pmf_width(std::size_t width) {
  if (width > kMaxPmfWidth) {
    throw std::length_error(
        "error-PMF propagation supports widths <= 62, got " +
        std::to_string(width));
  }
}

ErrorPmfState make_error_pmf_state(double p_cin) {
  ErrorPmfState state;
  if (p_cin < 1.0) {
    state.joint[joint_index(false, false)] =
        ErrorPmf::point_mass(0, 1.0 - p_cin);
  }
  if (p_cin > 0.0) {
    state.joint[joint_index(true, true)] = ErrorPmf::point_mass(0, p_cin);
  }
  return state;
}

void advance_error_pmf(const ErrorPmfState& from, const adders::AdderCell& cell,
                       double p_a, double p_b, ErrorPmfState& into,
                       const PmfOptions& options) {
  if (&from == &into) {
    throw std::invalid_argument(
        "advance_error_pmf: source and destination states must differ");
  }
  check_pmf_width(from.stage + 1);
  const adders::AdderCell::Rows& exact = adders::AdderCell::accurate_rows();
  const std::array<double, 4> ab = ab_weights(p_a, p_b);
  const std::int64_t weight = std::int64_t{1} << from.stage;

  // Segmented convolution: each (source pair, operand combination)
  // contributes its segment shifted by d_i = (s_approx - s_exact) * 2^i
  // to exactly one destination pair.  At most 4 x 4 terms land on one
  // destination, so the term lists live on the stack.
  std::array<std::array<ErrorPmf::Term, 16>, 4> terms;
  std::array<std::size_t, 4> term_count{};
  for (std::size_t src = 0; src < 4; ++src) {
    const ErrorPmf& segment = from.joint[src];
    if (segment.empty()) continue;
    const bool ca = (src & 2U) != 0;
    const bool ce = (src & 1U) != 0;
    for (std::size_t abi = 0; abi < 4; ++abi) {
      if (ab[abi] == 0.0) continue;
      const bool a = (abi & 2U) != 0;
      const bool b = (abi & 1U) != 0;
      const adders::BitPair approx_out =
          cell.rows()[adders::AdderCell::row_index(a, b, ca)];
      const adders::BitPair exact_out =
          exact[adders::AdderCell::row_index(a, b, ce)];
      const std::int64_t delta =
          (static_cast<std::int64_t>(approx_out.sum) -
           static_cast<std::int64_t>(exact_out.sum)) *
          weight;
      const std::size_t dst = joint_index(approx_out.carry, exact_out.carry);
      terms[dst][term_count[dst]++] = ErrorPmf::Term{&segment, ab[abi], delta};
    }
  }

  for (std::size_t dst = 0; dst < 4; ++dst) {
    into.joint[dst] = ErrorPmf::mixture(
        std::span<const ErrorPmf::Term>(terms[dst].data(), term_count[dst]),
        options);
  }
  into.stage = from.stage + 1;
}

void advance_error_pmf(ErrorPmfState& state, const adders::AdderCell& cell,
                       double p_a, double p_b, const PmfOptions& options) {
  ErrorPmfState next;
  advance_error_pmf(state, cell, p_a, p_b, next, options);
  state = std::move(next);
}

ErrorPmf finalize_error_pmf(const ErrorPmfState& state,
                            const PmfOptions& options) {
  const std::int64_t weight = std::int64_t{1} << state.stage;
  std::array<ErrorPmf::Term, 4> terms;
  std::size_t count = 0;
  for (std::size_t j = 0; j < 4; ++j) {
    if (state.joint[j].empty()) continue;
    const std::int64_t ca = (j & 2U) != 0 ? 1 : 0;
    const std::int64_t ce = (j & 1U) != 0 ? 1 : 0;
    terms[count++] = ErrorPmf::Term{&state.joint[j], 1.0, (ca - ce) * weight};
  }
  return ErrorPmf::mixture(
      std::span<const ErrorPmf::Term>(terms.data(), count), options);
}

ErrorPmf propagate_error_pmf(const multibit::AdderChain& chain,
                             const multibit::InputProfile& profile,
                             const PmfOptions& options) {
  if (chain.width() != profile.width()) {
    throw std::invalid_argument(
        "propagate_error_pmf: chain and profile widths differ");
  }
  check_pmf_width(chain.width());
  std::size_t fold = chain.width();
  while (fold > 0 && chain.stage(fold - 1).is_exact()) --fold;
  ErrorPmfState state = make_error_pmf_state(profile.p_cin());
  for (std::size_t i = 0; i < fold; ++i) {
    advance_error_pmf(state, chain.stage(i), profile.p_a(i), profile.p_b(i),
                      options);
  }
  return finalize_error_pmf(state, options);
}

}  // namespace sealpaa::analysis
