// Shared pieces of the repository benchmark: seeded generation, order
// statistics, input hashing, run context and the result a workload hands
// back to main().
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sealpaa/obs/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from,
                                            Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// splitmix64: every generated input is a pure function of --seed.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound); bound must be > 0.
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  /// Uniform in [0, 1) with 53 random bits.
  double unit() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

/// Derives an independent stream seed for `stream` from the run seed.
[[nodiscard]] std::uint64_t stream_seed(std::uint64_t seed,
                                        std::uint64_t stream);

/// The q-th percentile (q in [0, 100]) by linear interpolation between
/// closest ranks (position (n - 1) * q / 100 of the sorted sample) —
/// Python's statistics.quantiles(method="inclusive") and numpy's default.
/// Throws std::invalid_argument on an empty sample or q outside [0, 100].
[[nodiscard]] double percentile(std::vector<double> samples, double q);

[[nodiscard]] inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

/// Number of samples strictly above the q-th percentile: the guide for
/// reporting a tail only where at least ten samples lie beyond it.
[[nodiscard]] std::size_t samples_beyond(const std::vector<double>& samples,
                                         double q);

/// FNV-1a over every generated input byte; the report records it so two
/// runs can prove they measured the same inputs.
class InputHash {
 public:
  void add(std::string_view bytes) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Peak resident set size of this process in MiB (getrusage).
[[nodiscard]] double peak_rss_mib();

/// nproc, the SIMD tier the batch kernels dispatch to, compiler and
/// build type.  The git commit is added by run.py, which sees the tree.
[[nodiscard]] sealpaa::obs::Json run_context();

/// A fixed reference kernel, independent of every sealpaa source file,
/// timed next to the workload so that times can be normalised for how
/// fast the box ran at that moment.  A shared VM's speed can drift by 2x
/// over minutes; a program change moves the workload but not this
/// kernel, while a slower box moves both.  Each pass mixes a dependent
/// floating-point chain, random loads from a 1 MiB table and
/// unpredictable branches (about 0.3 ms on the box the reference was
/// taken on); of the variants tried it tracked branch-and-bound solve
/// times best.
class Calibration {
 public:
  /// Kernel time the normalised figures are expressed at.
  static constexpr double kReferenceS = 0.3e-3;

  /// Runs `passes` kernel passes; returns their median time (s) and
  /// keeps every pass.
  double sample(int passes);
  /// Median pass time over everything sampled so far.
  [[nodiscard]] double median_s() const;
  /// `seconds` measured while the kernel took `kernel_s`, expressed at
  /// the reference speed.
  [[nodiscard]] static double normalise(double seconds, double kernel_s) {
    return seconds * kReferenceS / kernel_s;
  }

 private:
  std::vector<double> passes_;
};

/// Round trip of a token between two threads through a mutex and a
/// condition variable, the wake-up path a request takes through the
/// service.  Returns the median round trip (s) over `trips`.
[[nodiscard]] double wakeup_round_trip_s(int trips);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  // spans are written here when trace is set
  std::string reference_dir = "perfbench/reference";
};

/// What a workload reports back to main().
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the log
  /// The workload's own metrics, by the names the README documents.
  std::vector<Metric> workload_metrics;
  /// The shared end-to-end slots of BENCHMARK.json (setup_s, leg*_ms).
  std::vector<Metric> end_to_end;
  /// Per-layer metrics (traced runs only).
  std::vector<Metric> per_layer;
  /// Free-form facts for the report: input hash, sample counts, shares.
  sealpaa::obs::Json details = sealpaa::obs::Json::object();

  /// Counts one verified operation; a false `ok` is a failure.
  void check(bool ok, const std::string& what);
  /// Adds `other`'s attempted/failed/failures.
  void absorb(const RunResult& other);
};

/// Formats `value` with all 17 significant digits.
[[nodiscard]] std::string exact(double value);

}  // namespace perfbench
