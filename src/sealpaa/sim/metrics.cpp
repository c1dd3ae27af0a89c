#include "sealpaa/sim/metrics.hpp"

#include <bit>
#include <cmath>
#include <cstdlib>

namespace sealpaa::sim {

void ErrorMetrics::add(std::uint64_t approx_value, std::uint64_t exact_value,
                       bool stage_success) noexcept {
  ++cases_;
  if (!stage_success) ++stage_failures_;
  // Subtract as uint64 and reinterpret: the same two's-complement bits
  // as a signed subtraction, without its overflow at width 63.
  const std::int64_t error =
      static_cast<std::int64_t>(approx_value - exact_value);
  if (error != 0) ++value_errors_;
  const double e = static_cast<double>(error);
  sum_error_ += e;
  sum_abs_error_ += std::fabs(e);
  sum_sq_error_ += e * e;
  if (worse_error(error, worst_case_)) worst_case_ = error;
}

void ErrorMetrics::add_batch(std::uint64_t lane_mask,
                             std::uint64_t value_error_mask,
                             std::uint64_t stage_fail_mask,
                             const std::array<std::int64_t, 64>&
                                 error) noexcept {
  cases_ += static_cast<std::uint64_t>(std::popcount(lane_mask));
  value_errors_ +=
      static_cast<std::uint64_t>(std::popcount(value_error_mask));
  stage_failures_ +=
      static_cast<std::uint64_t>(std::popcount(stage_fail_mask));
  for (std::uint64_t w = value_error_mask; w != 0; w &= w - 1) {
    const std::int64_t e = error[static_cast<std::size_t>(std::countr_zero(w))];
    const double d = static_cast<double>(e);
    sum_error_ += d;
    sum_abs_error_ += std::fabs(d);
    sum_sq_error_ += d * d;
    if (worse_error(e, worst_case_)) worst_case_ = e;
  }
}

double ErrorMetrics::error_rate() const noexcept {
  return cases_ == 0 ? 0.0
                     : static_cast<double>(value_errors_) /
                           static_cast<double>(cases_);
}

double ErrorMetrics::stage_failure_rate() const noexcept {
  return cases_ == 0 ? 0.0
                     : static_cast<double>(stage_failures_) /
                           static_cast<double>(cases_);
}

double ErrorMetrics::mean_error() const noexcept {
  return cases_ == 0 ? 0.0 : sum_error_ / static_cast<double>(cases_);
}

double ErrorMetrics::mean_abs_error() const noexcept {
  return cases_ == 0 ? 0.0 : sum_abs_error_ / static_cast<double>(cases_);
}

double ErrorMetrics::mean_squared_error() const noexcept {
  return cases_ == 0 ? 0.0 : sum_sq_error_ / static_cast<double>(cases_);
}

void ErrorMetrics::merge(const ErrorMetrics& other) noexcept {
  cases_ += other.cases_;
  value_errors_ += other.value_errors_;
  stage_failures_ += other.stage_failures_;
  sum_error_ += other.sum_error_;
  sum_abs_error_ += other.sum_abs_error_;
  sum_sq_error_ += other.sum_sq_error_;
  if (worse_error(other.worst_case_, worst_case_)) {
    worst_case_ = other.worst_case_;
  }
}

}  // namespace sealpaa::sim
