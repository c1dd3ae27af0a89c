#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "sealpaa/engine/batch_evaluator.hpp"
#include "sealpaa/util/kernel_override.hpp"

namespace perfbench {

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  SplitMix mix(seed ^ (stream * 0xd1342543de82ef95ull));
  mix.next();
  return mix.next();
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    throw std::invalid_argument("percentile of an empty sample");
  }
  if (!(q >= 0.0 && q <= 100.0)) {
    throw std::invalid_argument("percentile rank outside [0, 100]");
  }
  std::sort(samples.begin(), samples.end());
  const double position =
      static_cast<double>(samples.size() - 1) * q / 100.0;
  const auto lower = static_cast<std::size_t>(std::floor(position));
  const std::size_t upper = std::min(lower + 1, samples.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return samples[lower] + (samples[upper] - samples[lower]) * fraction;
}

std::size_t samples_beyond(const std::vector<double>& samples, double q) {
  if (samples.empty()) return 0;
  const double cut = percentile(samples, q);
  return static_cast<std::size_t>(
      std::count_if(samples.begin(), samples.end(),
                    [cut](double v) { return v > cut; }));
}

void InputHash::add(std::string_view bytes) noexcept {
  for (const char c : bytes) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 0x100000001b3ull;
  }
}

std::string InputHash::hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash_));
  return buffer;
}

double peak_rss_mib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

sealpaa::obs::Json run_context() {
  using sealpaa::obs::Json;
  Json context = Json::object();
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  context.set("nproc", Json(static_cast<std::int64_t>(cpus)));
  context.set("batch_kernel",
              Json(std::string(sealpaa::util::kernel_level_name(
                  sealpaa::engine::active_batch_kernel()))));
  context.set("compiler", Json(PERFBENCH_COMPILER));
  context.set("build_type", Json(PERFBENCH_BUILD_TYPE));
  return context;
}

namespace {

/// One pass of the calibration kernel; returns its wall time.
double calibration_pass() {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> values(std::size_t{1} << 18);  // 1 MiB
    SplitMix mix(0xca11b7a7e);
    for (std::uint32_t& value : values) {
      value = static_cast<std::uint32_t>(mix.next());
    }
    return values;
  }();
  const Clock::time_point t0 = Clock::now();
  double x = 1.0;
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  std::uint64_t acc = 0;
  std::uint32_t loaded = 0;
  for (std::uint32_t i = 0; i < 40'000; ++i) {
    x = x * 1.0000001 + 1e-9;
    h ^= h << 13;
    h ^= h >> 7;
    h ^= h << 17;
    loaded += table[h & (table.size() - 1)];
    if ((h & 1) != 0) {
      acc += h >> 3;
    } else {
      acc -= loaded;
    }
  }
  const double seconds = seconds_between(t0, Clock::now());
  volatile double sink = x + static_cast<double>(acc);
  (void)sink;
  return seconds;
}

}  // namespace

double Calibration::sample(int passes) {
  std::vector<double> these;
  for (int i = 0; i < passes; ++i) these.push_back(calibration_pass());
  passes_.insert(passes_.end(), these.begin(), these.end());
  return median(std::move(these));
}

double Calibration::median_s() const { return median(passes_); }

double wakeup_round_trip_s(int trips) {
  std::mutex mutex;
  std::condition_variable cv;
  int turn = 0;  // 0: main thread's turn, 1: partner's turn, -1: stop
  std::thread partner([&] {
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      cv.wait(lock, [&] { return turn != 0; });
      if (turn < 0) return;
      turn = 0;
      cv.notify_all();
    }
  });
  std::vector<double> round_trips;
  {
    std::unique_lock<std::mutex> lock(mutex);
    for (int i = 0; i < trips; ++i) {
      const Clock::time_point t0 = Clock::now();
      turn = 1;
      cv.notify_all();
      cv.wait(lock, [&] { return turn == 0; });
      round_trips.push_back(seconds_between(t0, Clock::now()));
    }
    turn = -1;
    cv.notify_all();
  }
  partner.join();
  return median(std::move(round_trips));
}

void RunResult::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

void RunResult::absorb(const RunResult& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& failure : other.failures) {
    if (failures.size() < 8) failures.push_back(failure);
  }
}

std::string exact(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace perfbench
